import json
import re
from datetime import datetime, timedelta, timezone
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from geotweet import corpus as C


def rec(text="hello world", location="", label="city-a", tz=None, offset=None):
    ts = datetime(2010, 7, 29, 17, 25, 38, tzinfo=timezone.utc)
    return C.TweetRecord(text=text, created_at=ts, utc_offset_seconds=offset,
                         timezone_name=tz, user_location=location,
                         account_created_at=ts, city_label=label)


class TestCharVocab:
    def test_min_count_two(self):
        v = C.build_char_vocab(["aab", "ab"], min_count=2)
        assert set(v.char_to_id) == {"a", "b"}
        assert v.pad_id == 0 and v.unk_id == 1

    def test_min_count_three(self):
        v = C.build_char_vocab(["aab", "ab"], min_count=3)
        assert set(v.char_to_id) == {"a"}

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            C.build_char_vocab([], min_count=1)

    def test_default_min_count_is_five(self):
        assert C.DEFAULT_MIN_COUNT == 5
        v = C.build_char_vocab(["aaaaab"], min_count=C.DEFAULT_MIN_COUNT)
        assert set(v.char_to_id) == {"a"}

    def test_ids_are_contiguous_bijection(self):
        v = C.build_char_vocab(["the quick brown fox"], min_count=1)
        ids = sorted(v.char_to_id.values())
        assert ids == list(range(2, 2 + len(v.char_to_id)))

    def test_save_load_roundtrip(self, tmp_path):
        v = C.build_char_vocab(["aab\tx\n", "ab ф"], min_count=1)
        path = tmp_path / "vocab.txt"
        v.save(path)
        v2 = C.CharVocabulary.load(path)
        assert v2.char_to_id == v.char_to_id
        assert v2.min_count == v.min_count


class TestFilterTraining:
    def test_thresholds(self):
        records = [rec(text="hi"), rec(text="hello"), rec(text="")]
        kept = C.filter_training(records)
        assert [r.text for r in kept] == ["hello"]


class TestEncodeText:
    @pytest.fixture
    def vocab(self):
        return C.build_char_vocab(["abcdef"], min_count=1)

    def test_right_padding(self, vocab):
        ids = C.encode_text("ab", vocab, 4)
        assert ids == [vocab.lookup("a"), vocab.lookup("b"),
                       vocab.pad_id, vocab.pad_id]

    def test_prefix_truncation(self, vocab):
        ids = C.encode_text("abcdef", vocab, 3)
        assert ids == [vocab.lookup(c) for c in "abc"]

    def test_unseen_char_maps_to_unk(self, vocab):
        assert C.encode_text("aф", vocab, 2)[1] == vocab.unk_id

    @given(st.text(max_size=50), st.integers(min_value=1, max_value=30))
    def test_length_always_max_len(self, text, max_len):
        vocab = C.build_char_vocab(["abc"], min_count=1)
        assert len(C.encode_text(text, vocab, max_len)) == max_len


class TestTimeNormalization:
    def test_paper_footnote_value(self):
        ts = datetime(2010, 7, 29, 17, 25, 0, tzinfo=timezone.utc)
        assert round(C.normalize_time_of_day(ts), 3) == 0.726

    def test_midnight_and_noon(self):
        midnight = datetime(2020, 1, 1, 0, 0, 0, tzinfo=timezone.utc)
        noon = datetime(2020, 1, 1, 12, 0, 0, tzinfo=timezone.utc)
        assert C.normalize_time_of_day(midnight) == 0.0
        assert C.normalize_time_of_day(noon) == 0.5

    @given(st.datetimes(min_value=datetime(2000, 1, 1),
                        max_value=datetime(2030, 1, 1)),
           st.integers(min_value=-1000, max_value=1000))
    def test_invariant_to_date(self, ts, days):
        shifted = ts + timedelta(days=days)
        assert C.normalize_time_of_day(ts) == C.normalize_time_of_day(shifted)


class TestOffsetNormalization:
    def test_declared_extremes(self):
        assert C.normalize_utc_offset(-12 * 3600) == 0.0
        assert C.normalize_utc_offset(14 * 3600) == 1.0

    def test_zero_offset(self):
        assert C.normalize_utc_offset(0) == pytest.approx(12 / 26, abs=5e-6)

    def test_missing_offset_midpoint(self):
        assert C.normalize_utc_offset(None) == 0.5

    @given(st.integers(min_value=-15 * 3600, max_value=17 * 3600),
           st.integers(min_value=0, max_value=7200))
    def test_monotone_nondecreasing(self, offset, delta):
        assert (C.normalize_utc_offset(offset + delta)
                >= C.normalize_utc_offset(offset))

    def test_clamped_outside_declared_range(self):
        assert C.normalize_utc_offset(-20 * 3600) == 0.0
        assert C.normalize_utc_offset(20 * 3600) == 1.0


class TestEncodeExample:
    @pytest.fixture
    def vocabs(self):
        char = C.build_char_vocab(["hello world"], min_count=1)
        tzs = C.CategoryVocabulary(["Pacific Time (US & Canada)", "UTC"])
        labels = C.CategoryVocabulary(["city-a", "city-b"], with_unk=False)
        return char, tzs, labels

    def test_known_timezone(self, vocabs):
        char, tzs, labels = vocabs
        ex = C.encode_example(rec(tz="UTC"), char, tzs, labels, 10, 5)
        assert ex["timezone_id"] == tzs.name_to_id["UTC"]

    def test_missing_timezone_is_unk(self, vocabs):
        char, tzs, labels = vocabs
        ex = C.encode_example(rec(tz=None), char, tzs, labels, 10, 5)
        assert ex["timezone_id"] == tzs.unk_id

    def test_paper_lengths(self, vocabs):
        char, tzs, labels = vocabs
        ex = C.encode_example(rec(), char, tzs, labels, 300, 20)
        assert len(ex["text_ids"]) == 300 and len(ex["location_ids"]) == 20

    def test_empty_location_is_all_pad(self, vocabs):
        char, tzs, labels = vocabs
        ex = C.encode_example(rec(location=""), char, tzs, labels, 10, 5)
        assert ex["location_ids"] == [char.pad_id] * 5

    def test_real_fields_in_unit_interval(self, vocabs):
        char, tzs, labels = vocabs
        ex = C.encode_example(rec(offset=5 * 3600), char, tzs, labels, 10, 5)
        for value in (ex["tweet_time"], ex["account_time"], ex["utc_offset"]):
            assert 0.0 <= value <= 1.0


def test_city_outside_the_labels_is_unseen_in_the_table():
    char = C.build_char_vocab(["hello world"], min_count=1)
    tzs = C.CategoryVocabulary(["UTC"])
    labels = C.CategoryVocabulary(["city-a", "city-b"], with_unk=False)
    config = SimpleNamespace(text_max_len=10, loc_max_len=5)
    records = [rec(label="city-b"), rec(label="nowhere"), rec(label="city-a"),
               rec(label="")]
    table = C.encode_records(records, char, tzs, labels, config)
    assert table["label_id"].tolist() == [1, C.UNSEEN_LABEL, 0, C.UNSEEN_LABEL]
    assert C.unseen_labels(table) == 2


class TestCategoryVocab:
    def test_contiguous_from_zero(self):
        v = C.CategoryVocabulary(["b", "a", "c", "a"])
        assert sorted(v.name_to_id.values()) == [0, 1, 2]
        assert v.unk_id == 3

    def test_unknown_maps_to_unk(self):
        v = C.CategoryVocabulary(["a"])
        assert v.lookup("zzz") == v.unk_id

    def test_no_unk_gives_unseen_label(self):
        v = C.CategoryVocabulary(["a"], with_unk=False)
        assert v.lookup("zzz") == v.lookup(None) == C.UNSEEN_LABEL
        assert len(v) == 1

    def test_save_load_roundtrip(self, tmp_path):
        v = C.CategoryVocabulary(["Pacific Time (US & Canada)", "UTC"])
        path = tmp_path / "tz.txt"
        v.save(path)
        v2 = C.CategoryVocabulary.load(path)
        assert v2.name_to_id == v.name_to_id and v2.unk_id == v.unk_id


class TestJsonl:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "data.jsonl"
        C.write_jsonl(path, [rec(tz="UTC", offset=3600)])
        loaded = C.read_jsonl(path)
        assert len(loaded) == 1
        assert loaded[0].text == "hello world"
        assert loaded[0].utc_offset_seconds == 3600

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = json.dumps({"text": "ok", "created_at": 0,
                           "account_created_at": 0, "city_label": "x"})
        path.write_text(good + "\nnot json\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 2"):
            C.read_jsonl(path)

    def test_unparseable_timestamp_names_field(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        obj = {"text": "hello", "created_at": "not-a-date",
               "account_created_at": 0, "city_label": "x"}
        path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="created_at"):
            C.read_jsonl(path)

    def test_missing_timestamp_names_field(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        obj = {"text": "hello", "account_created_at": 0, "city_label": "x"}
        path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
        message = f"{path}: line 1: missing field 'created_at'"
        with pytest.raises(ValueError, match=re.escape(message)):
            C.read_jsonl(path)

    def test_epoch_seconds_accepted(self, tmp_path):
        path = tmp_path / "data.jsonl"
        obj = {"text": "hello", "created_at": 1280424338,
               "account_created_at": 1280424338, "city_label": "x"}
        path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
        loaded = C.read_jsonl(path)
        assert loaded[0].created_at.year == 2010


def test_readme_data_format_example(tmp_path):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text(encoding="utf-8").split("```json\n")[1]
    path = tmp_path / "example.jsonl"
    path.write_text(block.split("```")[0], encoding="utf-8")
    records = C.read_jsonl(path)
    assert len(records) == 2
    first, second = records
    assert first.utc_offset_seconds == -18000
    assert first.timezone_name == "Eastern Time (US & Canada)"
    assert first.created_at == datetime(2010, 7, 29, 17, 25,
                                        tzinfo=timezone.utc)
    assert second.utc_offset_seconds is None and second.timezone_name is None
    # the example uses exactly the fields the corpus writer emits
    for line in path.read_text(encoding="utf-8").splitlines():
        assert list(json.loads(line)) == list(C.record_to_dict(first))


@pytest.mark.parametrize("content, fault", [
    ("charvocab\t1\tx\nU+0061\t2\n", "line 1"),
    ("charvocab\t1\t0\nU+0061\t2\n", "line 1: min_count"),
    ("charvocab\t1\t1\nU+0061\t2\nU+0062\n", "line 3"),
    ("charvocab\t1\t1\nU+FFFFFFFFFF\t2\n", "line 2"),
    ("charvocab\t1\t1\nU+0062\t1\nU+0061\t2\n", "in id order"),
    ("charvocab\t1\t1\nU+0061\t2\nU+0061\t2\n", "unique"),
    ("charvocab\t1\t2\nU+0061\t2\nU+0062\t1\n", "min_count"),
    (b"charvocab\t1\t1\nU+0061\t\xff\n", "UTF-8"),
    # forms that int() reads but save never writes
    ("charvocab\t1\t1\nU+0x0020\t1196\n", "in id order"),
    ("charvocab\t1\t1\nX+0020\t1196\n", "in id order"),
    ("charvocab\t1\t1\nU+ 0020\t1196\n", "in id order"),
    ("charvocab\t1\t1\nU+0020\t+1196\n", "in id order"),
    ("charvocab\t1\t1\nU+0020\t 01196\n", "in id order"),
])
def test_char_vocab_load_names_file_and_fault(tmp_path, content, fault):
    path = tmp_path / "vocab.txt"
    path.write_bytes(content if isinstance(content, bytes)
                     else content.encode("utf-8"))
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}: .*{fault}"):
        C.CharVocabulary.load(path)


@pytest.mark.parametrize("content, fault", [
    ("catvocab\t7\t0\na\n", "unsupported vocabulary version 7"),
    ("catvocab\t1\tno\na\n", "line 1"),
    ("charvocab\t1\t0\na\n", "not a category vocabulary"),
    ("catvocab\t1\t0\nb\na\n", "sorted"),
    ("catvocab\t1\t0\na\na\n", "unique"),
])
def test_category_vocab_load_names_file_and_fault(tmp_path, content, fault):
    path = tmp_path / "labels.txt"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}: .*{fault}"):
        C.CategoryVocabulary.load(path)
