import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geotweet import hashing as H

import oracles
from oracles import hamming


def code_set(bits, labels=None, ids=None):
    bits = np.asarray(bits, dtype=np.uint8)
    n = len(bits)
    return H.CodeSet(
        bits=bits,
        ids=np.arange(n, dtype=np.int64) if ids is None else np.asarray(ids),
        labels=(np.zeros(n, dtype=np.int64) if labels is None
                else np.asarray(labels)))


class TestBinarize:
    def test_sign_with_zero_rule(self):
        np.testing.assert_array_equal(
            H.binarize_sign([0.7, -0.2, 0.0]), [1, 0, 0])

    def test_all_positive(self):
        np.testing.assert_array_equal(H.binarize_sign([0.1, 2.0]), [1, 1])

    def test_scale_invariance(self):
        r = np.array([0.3, -1.5, 0.0, 2.0])
        np.testing.assert_array_equal(H.binarize_sign(r),
                                      H.binarize_sign(7.5 * r))


class TestHamming:
    def test_identical(self):
        assert hamming([1, 0, 1], [1, 0, 1]) == 0

    def test_two_bits_differ(self):
        assert hamming([1, 0, 1, 0], [0, 1, 1, 0]) == 2

    def test_width_mismatch(self):
        with pytest.raises(ValueError, match="widths differ"):
            hamming([1, 0], [1, 0, 1])

    @given(st.integers(1, 16).flatmap(
        lambda w: st.tuples(*[st.lists(st.integers(0, 1), min_size=w,
                                       max_size=w) for _ in range(3)])))
    @settings(max_examples=50)
    def test_metric_properties(self, triple):
        a, b, c = triple
        assert hamming(a, a) == 0
        assert hamming(a, b) == hamming(b, a) <= len(a)
        assert hamming(a, c) <= hamming(a, b) + hamming(b, c)


class TestRetrieve:
    def test_exact_match_first(self):
        index = code_set([[1, 0, 1], [0, 1, 0], [1, 1, 1]])
        assert H.retrieve([0, 1, 0], index)[0] == 1

    def test_single_item_index(self):
        index = code_set([[1, 0]])
        assert list(H.retrieve([0, 1], index)) == [0]

    def test_ties_break_by_ascending_id(self):
        index = code_set([[1, 1], [0, 0]], ids=[5, 2])
        # both at distance 1 from [1, 0]
        assert list(H.retrieve([1, 0], index)) == [2, 5]

    def test_empty_index_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            H.retrieve([1], code_set(np.empty((0, 1))))

    def test_matches_brute_force_sort(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            n, w = rng.integers(1, 40), rng.integers(1, 12)
            index = code_set(rng.integers(0, 2, (n, w)))
            query = rng.integers(0, 2, w)
            got = H.retrieve(query, index)
            expected = sorted(range(n),
                              key=lambda i: (hamming(query, index.bits[i]), i))
            np.testing.assert_array_equal(got, expected)


class TestAveragePrecision:
    def test_relevant_first(self):
        assert H.average_precision(["a", "b"], {"a"}) == 1.0

    def test_hand_example(self):
        ap = H.average_precision(["a", "b", "c"], {"a", "c"})
        assert ap == pytest.approx((1.0 + 2 / 3) / 2)

    def test_relevant_last(self):
        assert H.average_precision(list("abcd"), {"d"}) == pytest.approx(0.25)

    def test_empty_relevant_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            H.average_precision(["a"], set())

    def test_relevant_must_be_in_ranking(self):
        with pytest.raises(ValueError, match="not in the ranking"):
            H.average_precision(["a"], {"z"})

    def test_invariant_to_tail_order(self):
        ranking = ["a", "x", "y", "z"]
        base = H.average_precision(ranking, {"a"})
        assert base == H.average_precision(["a", "z", "y", "x"], {"a"})

    def test_matches_per_item_loop(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            ranking = rng.permutation(rng.choice(500, rng.integers(1, 60), replace=False))
            relevant = rng.choice(ranking, rng.integers(1, len(ranking) + 1), replace=False)
            assert H.average_precision(ranking, relevant) == pytest.approx(
                oracles.average_precision(list(ranking), set(relevant)), abs=1e-12)

    def test_missing_ids_listed_in_order(self):
        with pytest.raises(ValueError, match=r"not in the ranking: \[3, 7\]"):
            H.average_precision([1, 2], [7, 1, 3])


class TestMap:
    def test_self_retrieval_distinct_labels(self):
        bits = np.eye(4, dtype=np.uint8)
        dev = code_set(bits, labels=[0, 1, 2, 3])
        test = code_set(bits, labels=[0, 1, 2, 3])
        mean_ap, excluded = H.map_from_codes(test, dev)
        assert mean_ap == 1.0 and excluded == 0

    def test_excluded_count(self):
        dev = code_set([[1, 0]], labels=[0])
        test = code_set([[1, 0], [0, 1]], labels=[0, 9])
        _, excluded = H.map_from_codes(test, dev)
        assert excluded == 1

    def test_equals_mean_of_per_query_aps(self):
        rng = np.random.default_rng(1)
        dev = code_set(rng.integers(0, 2, (20, 8)),
                       labels=rng.integers(0, 3, 20))
        test = code_set(rng.integers(0, 2, (10, 8)),
                        labels=rng.integers(0, 3, 10))
        mean_ap, _ = H.map_from_codes(test, dev)
        aps = []
        for bits, lab in zip(test.bits, test.labels):
            relevant = {int(i) for i, l in zip(dev.ids, dev.labels) if l == lab}
            if relevant:
                aps.append(H.average_precision(list(H.retrieve(bits, dev)),
                                               relevant))
        assert mean_ap == pytest.approx(np.mean(aps))

    def test_matches_oracle_composition(self):
        # few bits give many distance ties; ids are shuffled and not
        # contiguous, and labels 5..7 occur only among the queries
        rng = np.random.default_rng(7)
        for _ in range(60):
            n, m, w = rng.integers(1, 50), rng.integers(1, 25), rng.integers(1, 5)
            dev = code_set(rng.integers(0, 2, (n, w)), labels=rng.integers(0, 5, n),
                           ids=rng.permutation(rng.choice(10_000, n, replace=False)))
            test = code_set(rng.integers(0, 2, (m, w)), labels=rng.integers(0, 8, m))
            mean_ap, excluded = H.map_from_codes(test, dev)
            want_ap, want_excluded = oracles.map_from_codes(test, dev)
            assert excluded == want_excluded
            assert mean_ap == pytest.approx(want_ap, abs=1e-12)


class TestLsh:
    def test_scale_invariance(self):
        lsh = H.LshModel(16, 5, np.random.default_rng(0))
        x = np.random.default_rng(1).standard_normal(5)
        np.testing.assert_array_equal(lsh.encode(x), lsh.encode(2 * x))

    def test_antipodal_complement(self):
        lsh = H.LshModel(16, 5, np.random.default_rng(2))
        x = np.random.default_rng(3).standard_normal(5)
        np.testing.assert_array_equal(lsh.encode(x), 1 - lsh.encode(-x))

    def test_dim_mismatch(self):
        lsh = H.LshModel(4, 5, np.random.default_rng(0))
        with pytest.raises(ValueError, match="dim"):
            lsh.encode(np.zeros(3))

    def test_collision_rate_tracks_angle(self):
        # per-bit agreement for unit vectors at angle theta is ~ 1 - theta/pi
        rng = np.random.default_rng(4)
        lsh = H.LshModel(10_000, 3, rng)
        for theta in (0.5, 1.0, 2.0):
            a = np.array([1.0, 0.0, 0.0])
            b = np.array([np.cos(theta), np.sin(theta), 0.0])
            agreement = (lsh.encode(a) == lsh.encode(b)).mean()
            assert agreement == pytest.approx(1 - theta / np.pi, abs=0.02)


class TestHistogram:
    def test_all_mass_at_zero(self):
        _, _, masses = H.r_histogram(np.zeros((5, 4)), bins=8)
        assert masses["middle"] == 1.0

    def test_extreme_bin_split(self):
        counts, _, masses = H.r_histogram(np.array([-0.95, 0.95]), bins=4)
        assert counts[0] == 1 and counts[-1] == 1
        assert masses["low_extreme"] == 0.5 and masses["high_extreme"] == 0.5

    def test_extreme_fraction(self):
        values = np.array([0.95, -0.91, 0.5, -0.2])
        assert H.extreme_fraction(values) == 0.5


class TestCodeFile:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(5)
        codes = code_set(rng.integers(0, 2, (7, 13)),
                         labels=rng.integers(0, 4, 7))
        path = tmp_path / "codes.bin"
        H.save_codes(path, codes)
        loaded = H.load_codes(path)
        np.testing.assert_array_equal(loaded.bits, codes.bits)
        np.testing.assert_array_equal(loaded.ids, codes.ids)
        np.testing.assert_array_equal(loaded.labels, codes.labels)

    def test_first_bit_is_msb_of_first_byte(self, tmp_path):
        codes = code_set([[1, 0, 0, 0, 0, 0, 0, 0]])
        path = tmp_path / "codes.bin"
        H.save_codes(path, codes)
        raw = path.read_bytes()
        # header: magic(4) + version/width(8) + count(8); record: id+label(16)
        assert raw[36] == 0b1000_0000

    def test_every_truncation_is_reported(self, tmp_path):
        path = tmp_path / "codes.bin"
        H.save_codes(path, code_set([[1, 0, 1], [0, 1, 1]], labels=[3, 4]))
        raw = path.read_bytes()
        cut = tmp_path / "cut.bin"
        for n in range(len(raw)):
            cut.write_bytes(raw[:n])
            with pytest.raises(ValueError, match=f"{cut}: truncated"):
                H.load_codes(cut)

    def test_trailing_data_is_reported(self, tmp_path):
        # a wrong width or count in the header leaves bytes unparsed
        path = tmp_path / "codes.bin"
        H.save_codes(path, code_set([[1, 0, 1], [0, 1, 1]], labels=[3, 4]))
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(ValueError, match=f"{path}: data after the last of 2"):
            H.load_codes(path)

    @pytest.mark.parametrize("n, width", [(5, 1), (5, 7), (5, 8), (5, 9), (5, 64),
                                          (5, 100), (0, 9)])
    def test_bytes_match_per_record_writer(self, tmp_path, n, width):
        rng = np.random.default_rng(width)
        codes = code_set(rng.integers(0, 2, (n, width)), labels=rng.integers(0, 2**40, n),
                         ids=rng.permutation(rng.choice(2**40, n, replace=False)))
        H.save_codes(tmp_path / "got.codes", codes)
        oracles.save_codes(tmp_path / "want.codes", codes)
        assert ((tmp_path / "got.codes").read_bytes()
                == (tmp_path / "want.codes").read_bytes())

    def test_repeated_id_is_reported(self, tmp_path):
        path = tmp_path / "codes.bin"
        H.save_codes(path, code_set([[1], [0], [1]], ids=[4, 9, 4]))
        with pytest.raises(ValueError, match=f"{path}: repeated id 4"):
            H.load_codes(path)

    @pytest.mark.parametrize("name", ["id", "label"])
    def test_negative_id_or_label_is_not_written(self, tmp_path, name):
        path = tmp_path / "codes.bin"
        codes = code_set([[1], [0]], **{f"{name}s": [3, -1]})
        with pytest.raises(ValueError,
                           match=f"{path}: cannot write the negative {name} -1"):
            H.save_codes(path, codes)
        assert not path.exists()

    @pytest.mark.parametrize("name, offset", [("id", 20), ("label", 28)])
    def test_id_or_label_past_int64_is_reported(self, tmp_path, name, offset):
        # the top bit of a little-endian u8, which int64 would read as negative
        path = tmp_path / "codes.bin"
        H.save_codes(path, code_set([[1]], ids=[5], labels=[3]))
        raw = bytearray(path.read_bytes())
        raw[offset + 7] |= 0x80
        path.write_bytes(bytes(raw))
        value = 2**63 + {"id": 5, "label": 3}[name]
        with pytest.raises(ValueError,
                           match=f"{path}: {name} {value} is out of range"):
            H.load_codes(path)

    def test_rejects_non_code_file(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"nope")
        with pytest.raises(ValueError, match="not a binary code file"):
            H.load_codes(path)


def test_raw_feature_vector_layout():
    table = {"text_ids": np.array([[2, 3, 0]]),
             "location_ids": np.array([[3, 0]]),
             "tweet_time": np.array([0.5]), "account_time": np.array([0.25]),
             "utc_offset": np.array([0.75]), "timezone_id": np.array([1]),
             "label_id": np.array([0])}
    (vec,) = H.raw_feature_matrix(table, char_vocab_size=4, n_timezones=2)
    assert vec.shape == (3 + 2 + 4 + 4,)
    np.testing.assert_allclose(vec[:3], [0.5, 0.25, 0.75])
    np.testing.assert_allclose(vec[3:5], [0.0, 1.0])
    # the bags count PAD (id 0) too
    np.testing.assert_allclose(vec[5:9], [0.5, 0.0, 0.0, 0.5])
    np.testing.assert_allclose(vec[9:], [1 / 3, 0.0, 1 / 3, 1 / 3])


def test_raw_feature_matrix_equals_per_row_oracle_bit_for_bit(tiny_corpus):
    from dataclasses import replace

    from geotweet.trainer import synthetic_model_config
    from conftest import encode_all

    records = tiny_corpus["test"][:40]
    records[1] = replace(records[1], user_location="")
    records[2] = replace(records[2], text="")
    records[3] = replace(records[3], timezone_name=None)
    records[4] = replace(records[4], user_location="", text="",
                         timezone_name="not/a/zone")
    table = encode_all(records, tiny_corpus, synthetic_model_config())
    sizes = len(tiny_corpus["char_vocab"]), len(tiny_corpus["tz_vocab"])
    assert not table["location_ids"][1].any() and not table["text_ids"][2].any()
    unk = tiny_corpus["tz_vocab"].unk_id
    assert table["timezone_id"][3] == table["timezone_id"][4] == unk
    got = H.raw_feature_matrix(table, *sizes)
    want = oracles.raw_feature_matrix(table, *sizes)
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape == (40, 3 + sizes[1] + 2 * sizes[0])
    assert got.tobytes() == want.tobytes()
