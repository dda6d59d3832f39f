"""Tweet metadata ingestion, vocabularies and example encoding."""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

PAD_ID = 0
UNK_ID = 1

MIN_TRAIN_TEXT_CHARS = 5
DEFAULT_MIN_COUNT = 5

# UTC offsets are assumed to span -12h..+14h
OFFSET_MIN_HOURS = -12.0
OFFSET_RANGE_HOURS = 26.0
MISSING_OFFSET_VALUE = 0.5

VOCAB_FORMAT_VERSION = 1

# label_id of a city that the run's label vocabulary lacks. No logit has this
# id, so scoring counts such a row as wrong, as the shared task does.
UNSEEN_LABEL = -1

# The encoded column table: one array per column, one row per record. The id
# columns are (n, max_len); the others are (n,). ``encode_example`` gives one
# record's value of each column.
COLUMNS = {"text_ids": np.int64, "location_ids": np.int64,
           "tweet_time": np.float64, "account_time": np.float64,
           "utc_offset": np.float64, "timezone_id": np.int64,
           "label_id": np.int64}


@dataclass
class TweetRecord:
    text: str
    created_at: datetime
    utc_offset_seconds: int | None
    timezone_name: str | None
    user_location: str
    account_created_at: datetime
    city_label: str


class CharVocabulary:
    """Characters seen >= min_count times in training text, plus PAD/UNK."""

    def __init__(self, counts, min_count):
        if min_count < 1:
            raise ValueError(f"min_count must be >= 1, got {min_count}")
        self.min_count = min_count
        self.counts = {c: n for c, n in counts.items() if n >= min_count}
        # deterministic id order: frequency desc, then codepoint
        ordered = sorted(self.counts, key=lambda c: (-self.counts[c], c))
        self.char_to_id = {c: i + 2 for i, c in enumerate(ordered)}
        self.pad_id = PAD_ID
        self.unk_id = UNK_ID

    def __len__(self):
        return len(self.char_to_id) + 2

    def lookup(self, char):
        return self.char_to_id.get(char, self.unk_id)

    def save(self, path):
        with open(path, "w", encoding="utf-8") as f:
            f.write(f"charvocab\t{VOCAB_FORMAT_VERSION}\t{self.min_count}\n")
            f.writelines(line + "\n" for line in self._entry_lines())

    def _entry_lines(self):
        """The lines that ``save`` writes after the header, in id order."""
        return [f"U+{ord(c):04X}\t{self.counts[c]}" for c in self.char_to_id]

    @classmethod
    def load(cls, path):
        min_count, lines = _read_vocab(path, "charvocab", "character")
        if min_count < 1:
            raise ValueError(f"{path}: line 1: min_count must be >= 1")
        counts = {}
        try:
            for i, line in enumerate(lines, start=2):
                code, _, n = line.partition("\t")
                counts[chr(int(code[2:], 16))] = int(n)
        except (ValueError, OverflowError):
            raise ValueError(f"{path}: line {i}: not 'U+<hex><tab><count>'") from None
        vocab = cls(counts, min_count)
        # ids follow line order, and each line must read as save writes it
        if vocab._entry_lines() != lines:
            raise ValueError(f"{path}: lines not unique, >= min_count, in id order")
        return vocab


class CategoryVocabulary:
    """Contiguous ids for category strings (timezones, city labels); any other
    name, or None, gets ``unk_id``: one more id with UNK, else UNSEEN_LABEL."""

    def __init__(self, names, with_unk=True):
        uniq = sorted(set(names))
        self.name_to_id = {n: i for i, n in enumerate(uniq)}
        self.with_unk = with_unk
        self.unk_id = len(uniq) if with_unk else UNSEEN_LABEL

    def __len__(self):
        return len(self.name_to_id) + int(self.with_unk)

    def lookup(self, name):
        return self.name_to_id.get(name, self.unk_id)

    def save(self, path):
        with open(path, "w", encoding="utf-8") as f:
            f.write(f"catvocab\t{VOCAB_FORMAT_VERSION}\t{int(self.with_unk)}\n")
            for n in sorted(self.name_to_id, key=self.name_to_id.get):
                f.write(n + "\n")

    @classmethod
    def load(cls, path):
        with_unk, names = _read_vocab(path, "catvocab", "category")
        if names != sorted(set(names)):  # ids follow the sorted order
            raise ValueError(f"{path}: names are not unique and sorted")
        return cls(names, with_unk=bool(with_unk))


def read_text_lines(path):
    """The lines of a UTF-8 text file, each with its newline; a ValueError
    naming the file if it is not UTF-8."""
    try:
        with open(path, encoding="utf-8") as f:
            yield from f
    except UnicodeDecodeError:
        raise ValueError(f"{path}: not a UTF-8 text file") from None


def _read_vocab(path, tag, kind):
    """The last header field and the entry lines of a vocabulary file."""
    lines = [line.rstrip("\n") for line in read_text_lines(path)]
    header = lines[0].split("\t") if lines else []
    if len(header) != 3 or header[0] != tag or not all(map(str.isdecimal, header[1:])):
        raise ValueError(f"{path}: line 1: not a {kind} vocabulary header")
    if int(header[1]) != VOCAB_FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported vocabulary version {header[1]}")
    return int(header[2]), lines[1:]


def build_char_vocab(training_texts, min_count=DEFAULT_MIN_COUNT):
    counts = Counter()
    n_texts = 0
    for text in training_texts:
        n_texts += 1
        counts.update(text)
    if n_texts == 0:
        raise ValueError("cannot build a vocabulary from an empty corpus")
    return CharVocabulary(counts, min_count)


def build_vocabularies(train_records, min_count):
    """(characters, timezones, city labels) of the training split."""
    char_vocab = build_char_vocab(
        (r.text + r.user_location for r in train_records), min_count=min_count)
    tz_vocab = CategoryVocabulary(
        [r.timezone_name for r in train_records if r.timezone_name])
    label_vocab = CategoryVocabulary(
        [r.city_label for r in train_records], with_unk=False)
    return char_vocab, tz_vocab, label_vocab


def filter_training(records):
    """Drop training records with text shorter than 5 characters.

    Applies to the training partition only; dev/test stay untouched.
    """
    return [r for r in records if len(r.text) >= MIN_TRAIN_TEXT_CHARS]


def encode_text(text, vocab, max_len):
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    ids = [vocab.lookup(c) for c in text[:max_len]]
    ids.extend([vocab.pad_id] * (max_len - len(ids)))
    return ids


def normalize_time_of_day(ts):
    """Fraction of the UTC day elapsed; the date component is discarded."""
    ts = ts.astimezone(timezone.utc) if ts.tzinfo else ts
    seconds = ts.hour * 3600 + ts.minute * 60 + ts.second + ts.microsecond / 1e6
    return seconds / 86400.0


def normalize_utc_offset(offset_seconds):
    """Map offsets in hours from [-12, +14] onto [0, 1], clamped."""
    if offset_seconds is None:
        return MISSING_OFFSET_VALUE
    hours = offset_seconds / 3600.0
    return min(1.0, max(0.0, (hours - OFFSET_MIN_HOURS) / OFFSET_RANGE_HOURS))


def encode_example(record, char_vocab, timezone_vocab, label_vocab,
                   text_max_len, location_max_len):
    """One record's row of the column table, keyed by column name."""
    return {
        "text_ids": encode_text(record.text, char_vocab, text_max_len),
        "location_ids": encode_text(record.user_location, char_vocab,
                                    location_max_len),
        "tweet_time": normalize_time_of_day(record.created_at),
        "account_time": normalize_time_of_day(record.account_created_at),
        "utc_offset": normalize_utc_offset(record.utc_offset_seconds),
        "timezone_id": timezone_vocab.lookup(record.timezone_name),
        "label_id": label_vocab.lookup(record.city_label),
    }


def encode_records(records, char_vocab, tz_vocab, label_vocab, config):
    """The column table of ``records`` (see COLUMNS), encoded with the
    vocabularies and ``config``'s text and location lengths; a city that
    ``label_vocab`` lacks gets UNSEEN_LABEL."""
    rows = [encode_example(r, char_vocab, tz_vocab, label_vocab,
                           config.text_max_len, config.loc_max_len)
            for r in records]
    # shaped, so that no records still give (0, max_len) id columns
    shapes = {"text_ids": (len(rows), config.text_max_len),
              "location_ids": (len(rows), config.loc_max_len)}
    return {name: np.array([row[name] for row in rows], dtype).reshape(
                shapes.get(name, len(rows)))
            for name, dtype in COLUMNS.items()}


def unseen_labels(columns):
    """How many rows of a column table have a city the labels lacked."""
    return int((columns["label_id"] == UNSEEN_LABEL).sum())


def _field(obj, name, kind, types, default=None, one_line=False):
    """obj[name], or ``default`` when absent, if one of ``types`` (never a
    bool) and, with ``one_line``, UTF-8 text with no line break: a vocabulary
    file keeps such names one a line. Else a ValueError naming the field."""
    value = obj.get(name, default)
    if isinstance(value, bool) or not isinstance(value, types):
        raise ValueError(f"field {name!r} must be {kind}, got {json.dumps(value)}")
    if one_line and value and ("\n" in value or "\r" in value):
        raise ValueError(f"field {name!r} holds a line break")
    if one_line and value and not value.isascii() and re.search("[\ud800-\udfff]", value):
        raise ValueError(f"field {name!r} holds a lone surrogate")
    return value


def _timestamp(obj, name):
    """A required field of ISO-8601 text or epoch seconds, as a UTC-aware
    datetime."""
    if name not in obj:
        raise ValueError(f"missing field {name!r}")
    value = _field(obj, name, "an ISO-8601 string or epoch seconds", (str, int, float))
    try:
        if isinstance(value, str):
            ts = datetime.fromisoformat(value.replace("Z", "+00:00"))
            return ts if ts.tzinfo else ts.replace(tzinfo=timezone.utc)
        return datetime.fromtimestamp(value, tz=timezone.utc)
    except (ValueError, OverflowError, OSError):
        raise ValueError(f"field {name!r} is not a valid timestamp: "
                         f"{json.dumps(value)}") from None


def record_from_dict(obj):
    """The TweetRecord of one decoded JSONL line; a fault raises ValueError."""
    if not isinstance(obj, dict):
        raise ValueError(f"not a JSON object: {json.dumps(obj)}")
    offset = _field(obj, "utc_offset", "an integer or null", (int, type(None)))
    try:
        float(offset or 0)  # normalize_utc_offset divides it as a float
    except OverflowError:
        raise ValueError(f"field 'utc_offset' is out of range: {offset}") from None
    return TweetRecord(
        text=_field(obj, "text", "a string", str, ""),
        created_at=_timestamp(obj, "created_at"),
        utc_offset_seconds=offset,
        timezone_name=_field(obj, "timezone", "a string or null", (str, type(None)),
                             one_line=True),
        user_location=_field(obj, "user_location", "a string or null",
                             (str, type(None))) or "",
        account_created_at=_timestamp(obj, "account_created_at"),
        city_label=_field(obj, "city_label", "a string", str, "", one_line=True),
    )


def record_to_dict(record):
    return {
        "text": record.text,
        "created_at": record.created_at.isoformat(),
        "utc_offset": record.utc_offset_seconds,
        "timezone": record.timezone_name,
        "user_location": record.user_location,
        "account_created_at": record.account_created_at.isoformat(),
        "city_label": record.city_label,
    }


def read_jsonl(path):
    """Load TweetRecords from a JSON-lines file; errors carry line numbers."""
    records = []
    for i, line in enumerate(read_text_lines(path), start=1):
        if not line.strip():
            continue
        try:
            records.append(record_from_dict(json.loads(line)))
        except json.JSONDecodeError as e:
            raise ValueError(f"{path}: line {i}: malformed JSON: {e}") from None
        except ValueError as e:
            raise ValueError(f"{path}: line {i}: {e}") from None
    if not records:
        raise ValueError(f"{path}: no records")
    return records


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as f:
        for r in records:
            f.write(json.dumps(record_to_dict(r), ensure_ascii=False) + "\n")
