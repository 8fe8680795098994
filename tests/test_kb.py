import os
import sys
import tempfile
import unicodedata
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_kb import reference_load_mapping, reference_normalize_title

import elbench
from elbench import cache, kb, kbcache, records
from elbench.kb import (REDIRECT_DEPTH, KbRecord, MappingIndex, is_qid, load_mapping,
                        normalize_title, title_to_qid)
from elbench.cache import cache_dir


class TestNormalizeTitle:
    @pytest.mark.parametrize("raw,expected", [
        ("jean-philippe_rameau", "Jean-philippe rameau"),
        ("  Les   Indes\tgalantes ", "Les Indes galantes"),
        ("opera", "Opera"),
        ("Opera", "Opera"),
        ("", ""),
        ("_", ""),
        ("é", "É"),
        ("ß-case", "SS-case"),
    ])
    def test_rules(self, raw, expected):
        assert normalize_title(raw) == expected

    def test_nfc_applied(self):
        decomposed = "étude"
        assert normalize_title(decomposed) == "Étude"

    def test_dialytika_capital_stays_idempotent(self):
        # upper() of the precomposed dialytika-tonos vowels has no precomposed
        # capital; the trailing NFC pass keeps a second application identical
        tricky = "ΐ tonos"
        once = normalize_title(tricky)
        assert normalize_title(once) == once

    @settings(max_examples=2000, deadline=None)
    @given(raw=st.text(max_size=30))
    def test_idempotent(self, raw):
        once = normalize_title(raw)
        assert normalize_title(once) == once

    @settings(max_examples=500, deadline=None)
    @given(raw=st.text(max_size=30))
    def test_output_shape(self, raw):
        result = normalize_title(raw)
        assert "_" not in result
        assert result == result.strip()
        assert "  " not in result
        assert unicodedata.normalize("NFC", result) == result


def test_is_qid():
    assert is_qid("Q1") and is_qid("Q315346")
    assert not is_qid("q1") and not is_qid("Q") and not is_qid("Q12x") and not is_qid("P31")
    # `$` alone would also match before a final newline
    assert not is_qid("Q1\n") and not is_qid("\nQ1") and not is_qid("Q1\n\n")


class TestLoadMapping:
    def test_basic_rows_and_redirect(self, tmp_path):
        path = tmp_path / "map.tsv"
        path.write_text("1\tFelix Mendelssohn\tQ4\n"
                        "2\tMendelssohn\t\tFelix Mendelssohn\n"
                        "3\tSome_Title\tQ9\n", encoding="utf-8")
        idx = load_mapping(str(path))
        assert len(idx) == 3
        assert idx.by_title["Felix Mendelssohn"].qid == "Q4"
        assert idx.by_title["Mendelssohn"].redirect_to == "Felix Mendelssohn"
        # titles are normalized on load
        assert "Some Title" in idx.by_title
        assert idx.by_page_id[3].canonical_title == "Some Title"

    def test_errors_collected_with_line_numbers(self, tmp_path):
        path = tmp_path / "map.tsv"
        path.write_text("1\tA\tQ1\n"
                        "x\tB\tQ2\n"
                        "3\tC\tnot-a-qid\n"
                        "4\tA\tQ4\n"
                        "1\tD\tQ5\n"
                        "5\tE\n", encoding="utf-8")
        with pytest.raises(ValueError) as err:
            load_mapping(str(path))
        message = str(err.value)
        assert "5 malformed row(s)" in message
        for fragment in ("line 2", "line 3", "line 4", "line 5", "line 6",
                         "duplicate title", "duplicate page_id"):
            assert fragment in message

    def test_non_ascii_digits_rejected(self, tmp_path):
        # str.isdigit() accepts both; int() rejects "²" and reads "١" as 1.
        path = tmp_path / "map.tsv"
        path.write_text("\u00b2\tA\tQ1\n"
                        "\u0661\tB\tQ2\n", encoding="utf-8")
        with pytest.raises(ValueError) as err:
            load_mapping(str(path))
        message = str(err.value)
        assert "2 malformed row(s)" in message
        assert "line 1: page_id must be a positive integer, got '\u00b2'" in message
        assert "line 2: page_id must be a positive integer, got '\u0661'" in message

    def test_self_redirect_rejected(self, tmp_path):
        path = tmp_path / "map.tsv"
        path.write_text("1\tLoop\t\tLoop\n", encoding="utf-8")
        with pytest.raises(ValueError, match="own title"):
            load_mapping(str(path))

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "map.tsv"
        path.write_text("\n1\tA\tQ1\n\n", encoding="utf-8")
        assert len(load_mapping(str(path))) == 1


class TestResolution:
    def test_direct_title(self, small_kb):
        assert title_to_qid(small_kb, "Thomas Moore") == "Q3"
        assert title_to_qid(small_kb, "thomas_Moore") == "Q3"
        assert title_to_qid(small_kb, "  Thomas   Moore ") == "Q3"

    def test_unknown_title(self, small_kb):
        assert title_to_qid(small_kb, "No Such Page") is None

    def test_redirect_followed(self, small_kb):
        assert title_to_qid(small_kb, "Mendelssohn") == "Q4"

    def test_chain_depth_limit(self):
        records = [KbRecord(99, "Target", "Q9")]
        for i in range(6):
            records.append(KbRecord(i + 1, f"Hop{i}", None,
                                    redirect_to=f"Hop{i+1}" if i < 5 else "Target"))
        idx = MappingIndex(records)
        # Hop2 -> Hop3 -> Hop4 -> Hop5 -> Target resolves within the limit
        assert title_to_qid(idx, f"Hop{5 - REDIRECT_DEPTH + 1}") == "Q9"
        assert title_to_qid(idx, "Hop0") is None

    def test_cycle_returns_none(self):
        idx = MappingIndex([
            KbRecord(1, "A", None, redirect_to="B"),
            KbRecord(2, "B", None, redirect_to="A"),
        ])
        assert title_to_qid(idx, "A") is None

    def test_dangling_redirect_returns_none(self):
        idx = MappingIndex([KbRecord(1, "A", None, redirect_to="Gone")])
        assert title_to_qid(idx, "A") is None

    def test_tombstone_returns_none(self):
        idx = MappingIndex([KbRecord(1, "Deleted Page", None)])
        assert title_to_qid(idx, "Deleted Page") is None

    def test_pageid_resolution(self, small_kb):
        assert small_kb.qid_for_page(3) == "Q3"
        assert small_kb.qid_for_page(5) == "Q4"
        assert small_kb.qid_for_page(12345) is None

    def test_qid_to_title_prefers_canonical(self):
        idx = MappingIndex([
            KbRecord(1, "Old Name", "Q7", redirect_to="New Name"),
            KbRecord(2, "New Name", "Q7"),
        ])
        assert idx.title_for_qid("Q7") == "New Name"

    def test_qid_to_title_round_trip(self, small_kb):
        for qid in ("Q1", "Q2", "Q3", "Q4"):
            title = small_kb.title_for_qid(qid)
            assert title_to_qid(small_kb, title) == qid
        assert small_kb.title_for_qid("Q999") is None

    def test_duplicate_titles_rejected_in_index(self):
        with pytest.raises(ValueError, match="duplicate title"):
            MappingIndex([KbRecord(1, "A", "Q1"), KbRecord(2, "A", "Q2")])
        with pytest.raises(ValueError, match="duplicate page_id"):
            MappingIndex([KbRecord(1, "A", "Q1"), KbRecord(1, "B", "Q2")])


# Every character str.split() treats as whitespace, and characters whose
# normalization or uppercasing is not the identity.
SPLIT_WHITESPACE = "".join(c for c in map(chr, range(0x110000)) if c.isspace())
TRICKY_CHARS = SPLIT_WHITESPACE + (
    "_aA\u00e9\u00c9"
    "\u0390\u03b0"                # Greek dialytika-tonos vowels: no precomposed capital
    "\u00df\u017f\u0131\u0149\u01f0"  # capitals of another length or letter
    "\u0301\u0308\u0342\u0345"     # combining marks, ypogegrammeni last
    "\u03b1\u1fb3")               # alpha, alpha with ypogegrammeni
raw_titles = st.one_of(
    st.text(alphabet=st.one_of(st.sampled_from(TRICKY_CHARS), st.characters()), max_size=30),
    st.text(max_size=30).map(lambda text: unicodedata.normalize("NFD", text)),
)


class TestNormalizeTitleOracle:
    @settings(max_examples=1000, deadline=None)
    @given(raw=raw_titles)
    def test_equals_reference(self, raw):
        assert normalize_title(raw) == reference_normalize_title(raw)

    # "\u1fb3" (alpha with ypogegrammeni) decomposed: its capital is "\u0391\u0399",
    # but the capital of its first code point, recomposed, is "\u1fbc"; only the
    # NFC pass before uppercasing tells them apart.
    @pytest.mark.parametrize("raw", ["\u0390 tonos", "\u03b0", "\u00df", "e\u0301tude",
                                     "_a\u3000b\x1c", "\u017f", "\u0131", "\u0149 x",
                                     "\u03b1\u0345 x"])
    def test_known_cases(self, raw):
        assert normalize_title(raw) == reference_normalize_title(raw)


# Cells drawn from small pools, so titles and page IDs collide often.
PAGE_IDS = ["1", "2", "3", "12", "007", " 2 ", "0", "-1", "x", "", "1.5",
            "\u00b2", "\u0663"]  # superscript two, Arabic-Indic three: isdigit() holds
TITLES = ["A", "a", "A_", " a ", "_", "", "  ", "B b", "b_b", "\u00c4", "A\u0308",
          "\u00df", "SS", "\u0390", "\u03b9\u0308\u0301", "\u03a9", "x\u3000y"]
QIDS = ["", "Q1", "Q2", "Q10", "q1", "Q", "X9", " Q2 ", "Q1x"]
REDIRECTS = TITLES + ["Z", "C"]

mapping_rows = st.one_of(
    st.tuples(st.sampled_from(PAGE_IDS), st.sampled_from(TITLES),
              st.sampled_from(QIDS)).map("\t".join),
    st.tuples(st.sampled_from(PAGE_IDS), st.sampled_from(TITLES), st.sampled_from(QIDS),
              st.sampled_from(REDIRECTS)).map("\t".join),
    st.lists(st.sampled_from(TITLES + PAGE_IDS), min_size=1, max_size=5).map("\t".join),
    st.sampled_from(["", "   ", "\t", "\t\t"]),
)


def mapping_outcome(load, path):
    """An index's contents, or the text of the ValueError the load raised."""
    try:
        idx = load(path)
    except ValueError as exc:
        return ("error", str(exc))
    qids = {rec.qid for rec in idx.by_title.values() if rec.qid}
    return (dict(idx.by_title), dict(idx.by_page_id),
            {qid: idx.title_for_qid(qid) for qid in qids}, len(idx))


class TestLoadMappingOracle:
    @settings(max_examples=800, deadline=None)
    @given(rows=st.lists(mapping_rows, max_size=12))
    def test_equals_reference(self, tmp_path_factory, rows):
        path = tmp_path_factory.getbasetemp() / "oracle_mapping.tsv"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        assert mapping_outcome(load_mapping, str(path)) == \
            mapping_outcome(reference_load_mapping, str(path))

    def test_every_error_kind_covered(self, tmp_path):
        # One row of each malformed kind, so the oracle sees them all at once.
        path = tmp_path / "map.tsv"
        path.write_text("1\tA\tQ1\n"
                        "2\tB\n"
                        "x\tC\tQ3\n"
                        "3\t_\tQ3\n"
                        "4\tD\tq4\n"
                        "5\tLoop\t\tloop\n"
                        "6\ta\tQ6\n"
                        "1\tE\tQ7\n"
                        "\n"
                        "7\tF\tQ8\t\n", encoding="utf-8")
        outcome = mapping_outcome(load_mapping, str(path))
        assert outcome == mapping_outcome(reference_load_mapping, str(path))
        assert outcome[0] == "error" and "7 malformed row(s)" in outcome[1]


# The compiled cache.  Titles that stay distinct after normalization,
# written in raw forms that normalize to them; "A\x00b" holds a NUL, which
# must match as exactly as any other character.
CACHE_TITLES = ["Alpha", "Beta Two", "\u00c9cole", "\u03a9mega", "Gamma", "Delta", "Eta",
                "Theta", "Iota", "Kappa", "Lambda", "Mu", "A\x00b", "Zeta"]
QUERY_TITLES = CACHE_TITLES + ["beta_Two", "  \u00e9cole ", "Nowhere", "A", "Elsewhere"]
CACHE_QIDS = ["Q1", "Q2", "Q3", "Q4"]


@st.composite
def valid_mappings(draw):
    """A valid mapping TSV: redirects at random or in one long chain, which
    may close into a cycle, with tombstones and QIDs shared between
    redirects and canonical pages."""
    titles = draw(st.lists(st.sampled_from(CACHE_TITLES), min_size=1, max_size=len(CACHE_TITLES),
                           unique=True))
    page_ids = draw(st.lists(st.integers(1, 2 ** 70), min_size=len(titles),
                             max_size=len(titles), unique=True))
    chain = draw(st.booleans())
    rows = []
    for i, (title, page_id) in enumerate(zip(titles, page_ids)):
        if chain:
            last = i == len(titles) - 1
            qid = draw(st.sampled_from(["", "Q1"])) if last else ""
            redirect = (draw(st.sampled_from(["", titles[0]])) if last and len(titles) > 1
                        else "" if last else titles[i + 1])
        else:
            qid = draw(st.sampled_from([""] + CACHE_QIDS))
            redirect = draw(st.sampled_from(["", "Elsewhere"] + [t for t in titles if t != title]))
        raw = draw(st.sampled_from([title, title.replace(" ", "_"), f" {title} "]))
        rows.append("\t".join([str(page_id), raw, qid] + ([redirect] if redirect or
                                                            draw(st.booleans()) else [])))
    return "\n".join(rows) + "\n", page_ids


def cache_entries():
    """Every file in the cache directory, temporary ones included."""
    return sorted(os.listdir(cache_dir())) if os.path.isdir(cache_dir()) else []


def added_entry(load):
    """The name of the one cache entry that load() adds."""
    before = set(cache_entries())
    load()
    (added,) = set(cache_entries()) - before
    return added


def assert_answers(keyed, ref, titles, page_ids, qids):
    """The keyed index answers every declared key as the reference index does."""
    assert len(keyed) == len(ref)
    for title in titles:
        assert title_to_qid(keyed, title) == title_to_qid(ref, title), title
    for page_id in page_ids:
        assert keyed.qid_for_page(page_id) == ref.qid_for_page(page_id), page_id
    for qid in qids:
        assert keyed.title_for_qid(qid) == ref.title_for_qid(qid), qid


def load_keyed(path, titles=(), page_ids=(), qids=()):
    return load_mapping(str(path), titles=set(titles), page_ids=set(page_ids), qids=set(qids))


def without_sqlite3(monkeypatch):
    """Make `import sqlite3`, and so the cache module, fail, as on a Python built without it."""
    monkeypatch.setitem(sys.modules, "sqlite3", None)
    monkeypatch.delitem(sys.modules, "elbench.kbcache")
    monkeypatch.delattr(elbench, "kbcache")


def never_parsed():
    """Within this, a load that parses the TSV fails: answers must come from the cache."""
    return mock.patch.object(kb, "_parse_mapping", side_effect=AssertionError("parsed the TSV"))


class TestKeyedCacheOracle:
    @settings(max_examples=300, deadline=None)
    @given(mapping=valid_mappings(), data=st.data())
    def test_cold_and_warm_equal_reference(self, mapping, data):
        text, page_ids = mapping
        titles = data.draw(st.lists(st.sampled_from(QUERY_TITLES), max_size=20))
        pages = data.draw(st.lists(st.sampled_from(page_ids) | st.integers(1, 2 ** 70),
                                   max_size=20))
        qids = data.draw(st.lists(st.sampled_from(CACHE_QIDS + ["Q9"]), max_size=5))
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.dict(os.environ, {"XDG_CACHE_HOME": tmp}):
            path = os.path.join(tmp, "map.tsv")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            ref = reference_load_mapping(path)
            cold = load_keyed(path, titles, pages, qids)
            assert len(cache_entries()) == 1
            with never_parsed():
                warm = load_keyed(path, titles, pages, qids)
            for keyed in (cold, warm):
                assert_answers(keyed, ref, titles, pages, qids)

    def test_many_keys_take_several_queries(self, tmp_path):
        # 2,500 keys of each kind: more than one query's worth.
        path = tmp_path / "map.tsv"
        path.write_text("".join(f"{i}\tT{i}\tQ{i}\n" for i in range(1, 6001)), encoding="utf-8")
        titles = [f"T{i}" for i in range(0, 5000, 2)]
        pages = range(0, 5000, 2)
        qids = [f"Q{i}" for i in range(0, 5000, 2)]
        ref = reference_load_mapping(str(path))
        load_keyed(path, titles, pages, qids)
        with never_parsed():
            assert_answers(load_keyed(path, titles, pages, qids), ref, titles, pages, qids)

    def test_chain_cycle_tombstone_and_shared_qid(self, tmp_path):
        path = tmp_path / "map.tsv"
        hops = [f"Hop{i}" for i in range(REDIRECT_DEPTH + 2)]
        path.write_text("".join(f"{i + 1}\t{hop}\t\t{hops[i + 1] if i + 1 < len(hops) else 'Target'}\n"
                                for i, hop in enumerate(hops))
                        + "50\tTarget\tQ9\n60\tA\t\tB\n61\tB\t\tA\n70\tGone\t\n"
                        + "80\tOld Name\tQ7\tNew Name\n81\tNew Name\tQ7\n", encoding="utf-8")
        titles = hops + ["Target", "A", "B", "Gone", "Old Name", "New Name", "Missing"]
        pages, qids = [1, 50, 60, 70, 80, 999], ["Q7", "Q9", "Q1"]
        ref = reference_load_mapping(str(path))
        keyed = load_keyed(path, titles, pages, qids)
        assert_answers(keyed, ref, titles, pages, qids)
        assert title_to_qid(keyed, "Hop0") is None and title_to_qid(keyed, "Hop2") == "Q9"
        assert keyed.title_for_qid("Q7") == "New Name"
        with never_parsed():
            assert_answers(load_keyed(path, titles, pages, qids), ref, titles, pages, qids)


class TestKeyedCache:
    MAPPING = "1\tFelix Mendelssohn\tQ4\n2\tMendelssohn\t\tFelix Mendelssohn\n3\tRossini\tQ5\n"
    KEYS = (["Mendelssohn", "Rossini", "Nowhere"], [1, 2, 9], ["Q4", "Q5", "Q6"])

    @pytest.fixture(autouse=True)
    def own_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))

    def check(self, path):
        ref = reference_load_mapping(str(path))
        assert_answers(load_keyed(path, *self.KEYS), ref, *self.KEYS)

    def test_no_keys_gives_the_full_index_and_no_entry(self, tmp_path):
        path = tmp_path / "map.tsv"
        path.write_text(self.MAPPING, encoding="utf-8")
        assert isinstance(load_mapping(str(path)), MappingIndex)
        assert cache_entries() == []

    def test_cold_load_resolves_each_record_once(self, tmp_path):
        # The declared keys are answered from the compiled answers, with no
        # second redirect walk per key.
        path = tmp_path / "map.tsv"
        path.write_text(self.MAPPING, encoding="utf-8")
        with mock.patch.object(kb, "_resolve_record", wraps=kb._resolve_record) as resolve:
            keyed = load_keyed(path, *self.KEYS)
        assert resolve.call_count == len(self.MAPPING.splitlines())
        assert_answers(keyed, reference_load_mapping(str(path)), *self.KEYS)

    def test_undeclared_key_is_an_error(self, tmp_path):
        path = tmp_path / "map.tsv"
        path.write_text(self.MAPPING, encoding="utf-8")
        keyed = load_keyed(path, titles=["rossini"])
        assert title_to_qid(keyed, "rossini") == "Q5"
        # Keys are the raw titles declared, not their normalized forms.
        for title in ("Rossini", "Mendelssohn"):
            with pytest.raises(KeyError):
                title_to_qid(keyed, title)
        with pytest.raises(KeyError):
            keyed.qid_for_page(1)

    @pytest.mark.parametrize("content", [
        "1\tA\tQ1\n2\tA\tQ2\nx\tB\tQ3\n".encode("utf-8"),
        "1\tLoop\t\tLoop\n".encode("utf-8"),
        b"".join(b"%d\tT%d\tQ1\n" % (i, i) for i in range(1, 3000)) + b"\xff\n",
        MAPPING.encode("utf-8") + b"9" * 5000 + b"\tVerdi\tQ8\n",
    ], ids=["duplicate-and-bad-page-id", "self-redirect", "not-utf-8", "page-id-digit-limit"])
    def test_invalid_file_same_error_and_no_entry(self, tmp_path, content):
        path = tmp_path / "map.tsv"
        path.write_bytes(content)
        with pytest.raises(ValueError) as full:
            load_mapping(str(path))
        with pytest.raises(ValueError) as keyed:
            load_keyed(path, *self.KEYS)
        assert str(keyed.value) == str(full.value)
        assert cache_entries() == []

    def test_changed_bytes_rebuild_and_replace_the_entry(self, tmp_path):
        path = tmp_path / "map.tsv"
        path.write_text(self.MAPPING, encoding="utf-8")
        self.check(path)
        first = cache_entries()
        path.write_text(self.MAPPING.replace("Q5", "Q6"), encoding="utf-8")
        self.check(path)
        second = cache_entries()
        assert len(first) == len(second) == 1 and first != second

    @pytest.mark.parametrize("module", [kb, kbcache, records, cache],
                             ids=["kb", "kbcache", "records", "cache"])
    def test_loader_source_is_part_of_the_key(self, tmp_path, module):
        path = tmp_path / "map.tsv"
        path.write_text(self.MAPPING, encoding="utf-8")
        entry = added_entry(lambda: self.check(path))
        edited = tmp_path / "edited.py"
        with open(module.__file__, "rb") as handle:
            edited.write_bytes(handle.read() + b"# edited\n")
        with mock.patch.object(module, "__file__", str(edited)):
            assert added_entry(lambda: self.check(path)) != entry

    def test_unicode_version_is_part_of_the_key(self, tmp_path, monkeypatch):
        # Normalized titles depend on it: str.upper maps U+2C5F to U+2C2F
        # from Unicode 14 on, and leaves it unchanged before.
        path = tmp_path / "map.tsv"
        path.write_text(self.MAPPING, encoding="utf-8")
        entry = added_entry(lambda: self.check(path))
        monkeypatch.setattr(unicodedata, "unidata_version", "13.0.0")
        assert added_entry(lambda: self.check(path)) != entry

    def test_entries_of_deleted_mappings_are_dropped(self, tmp_path):
        paths = [tmp_path / name for name in ("a.tsv", "b.tsv", "c.tsv")]
        for n, path in enumerate(paths):
            path.write_text(self.MAPPING + f"{10 + n}\tExtra {n}\tQ{10 + n}\n", encoding="utf-8")
        first = added_entry(lambda: self.check(paths[0]))
        kept = added_entry(lambda: self.check(paths[1]))
        paths[0].unlink()
        added = added_entry(lambda: self.check(paths[2]))
        assert set(cache_entries()) == {kept, added} and first not in cache_entries()

    def test_digit_limit_is_part_of_the_key(self, tmp_path, monkeypatch):
        # Under no limit a page ID of 5,000 digits is a valid row; under the
        # default limit the mapping fails to load, and an entry must not hide that.
        path = tmp_path / "map.tsv"
        path.write_text(self.MAPPING + "9" * 5000 + "\tVerdi\tQ8\n", encoding="utf-8")
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            self.check(path)
        finally:
            sys.set_int_max_str_digits(limit)
        assert len(cache_entries()) == 1
        with pytest.raises(ValueError) as cached:
            load_keyed(path, *self.KEYS)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cold"))
        with pytest.raises(ValueError) as cold:
            load_keyed(path, *self.KEYS)
        assert str(cached.value) == str(cold.value)
        assert str(cold.value) == f"{path}: 1 malformed row(s):\nline 4: page_id has too many digits"

    @pytest.mark.parametrize("damage", ["truncate", "garbage"])
    def test_damaged_entry_is_rebuilt(self, tmp_path, damage):
        path = tmp_path / "map.tsv"
        path.write_text(self.MAPPING + "4\tVerdi\tQ8\n", encoding="utf-8")
        entry = os.path.join(cache_dir(), added_entry(lambda: self.check(path)))
        size = os.path.getsize(entry)
        with open(entry, "r+b") as handle:
            if damage == "truncate":
                # The last page belongs to the last table, so a load that
                # reads only titles would still find what it reads.
                handle.truncate(size - 512)
            else:
                handle.write(b"not a database" * 8)
        assert title_to_qid(load_keyed(path, titles=["Verdi"]), "Verdi") == "Q8"
        assert os.path.getsize(entry) == size
        with never_parsed():
            self.check(path)

    def test_unwritable_cache_dir_still_answers(self, tmp_path, monkeypatch):
        path = tmp_path / "map.tsv"
        path.write_text(self.MAPPING, encoding="utf-8")
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("", encoding="utf-8")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        self.check(path)
        self.check(path)
        assert blocker.read_text(encoding="utf-8") == ""

    def test_read_only_cache_dir_serves_its_entry(self, tmp_path):
        path = tmp_path / "map.tsv"
        path.write_text(self.MAPPING, encoding="utf-8")
        self.check(path)
        os.chmod(cache_dir(), 0o555)
        try:
            with never_parsed():
                self.check(path)
        finally:
            os.chmod(cache_dir(), 0o755)

    def test_without_sqlite3(self, tmp_path, monkeypatch):
        without_sqlite3(monkeypatch)
        path = tmp_path / "map.tsv"
        path.write_text(self.MAPPING, encoding="utf-8")
        self.check(path)
        assert cache_entries() == []
