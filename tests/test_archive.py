import struct

import numpy as np
import pytest

from geotweet.archive import load_archive, save_archive


def test_roundtrip_preserves_values_and_order(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {
        "a.weight": rng.standard_normal((3, 4)),
        "b.bias": rng.standard_normal(5),
        "scalarish": np.array(2.5),
    }
    path = tmp_path / "params.gtpa"
    save_archive(path, tensors)
    loaded = load_archive(path)
    assert list(loaded) == list(tensors)
    for name, arr in tensors.items():
        np.testing.assert_array_equal(loaded[name], arr)
        assert loaded[name].dtype == np.float64


def test_rejects_foreign_file(tmp_path):
    path = tmp_path / "junk"
    path.write_bytes(b"whatever")
    with pytest.raises(ValueError, match="not a parameter archive"):
        load_archive(path)


def test_unicode_names(tmp_path):
    path = tmp_path / "params.gtpa"
    save_archive(path, {"emb/é": np.ones(2)})
    assert "emb/é" in load_archive(path)


def test_identical_content_gives_identical_bytes(tmp_path):
    tensors = {"w": np.arange(6, dtype=np.float64).reshape(2, 3)}
    a, b = tmp_path / "a", tmp_path / "b"
    save_archive(a, tensors)
    save_archive(b, tensors)
    assert a.read_bytes() == b.read_bytes()


def test_every_truncation_is_reported(tmp_path):
    path = tmp_path / "params.gtpa"
    save_archive(path, {"w": np.ones((2, 3)), "s": np.array(1.0)})
    raw = path.read_bytes()
    cut = tmp_path / "cut.gtpa"
    for n in range(len(raw)):
        cut.write_bytes(raw[:n])
        with pytest.raises(ValueError, match=f"{cut}: truncated"):
            load_archive(cut)


@pytest.mark.parametrize("dims", [
    (2**63 + 2, 3),  # the element count does not fit an int64
    (2**63,) * 600,  # nor, printed, in 4300 digits
])
def test_huge_shape_is_a_truncation(tmp_path, dims):
    path = tmp_path / "params.gtpa"
    path.write_bytes(b"GTPA" + struct.pack("<III", 1, 1, 1) + b"w"
                     + struct.pack(f"<I{len(dims)}Q", len(dims), *dims))
    with pytest.raises(ValueError, match=f"{path}: truncated"):
        load_archive(path)


@pytest.mark.parametrize("dims", [
    (0, 2**63),  # no elements, but a dimension beyond what numpy indexes
    (0,) + (1,) * 70,  # more dimensions than numpy allows
])
def test_empty_tensor_with_an_impossible_shape_is_reported(tmp_path, dims):
    path = tmp_path / "params.gtpa"
    path.write_bytes(b"GTPA" + struct.pack("<III", 1, 1, 1) + b"w"
                     + struct.pack(f"<I{len(dims)}Q", len(dims), *dims))
    with pytest.raises(ValueError, match=f"^{path}: tensor 'w': "):
        load_archive(path)


def test_data_after_the_last_tensor_is_reported(tmp_path):
    path = tmp_path / "params.gtpa"
    save_archive(path, {"w": np.ones((2, 3)), "s": np.array(1.0)})
    path.write_bytes(path.read_bytes() + bytes(64))
    with pytest.raises(ValueError, match=f"^{path}: data after the last of 2 tensors$"):
        load_archive(path)


def test_repeated_tensor_name_is_reported(tmp_path):
    path = tmp_path / "params.gtpa"
    save_archive(path, {"w": np.ones(2), "v": np.zeros(2)})
    raw = path.read_bytes()
    # rename "v" to "w": both records have a one-byte name and a 2-vector
    path.write_bytes(raw.replace(b"\x01\x00\x00\x00v", b"\x01\x00\x00\x00w"))
    with pytest.raises(ValueError, match=f"^{path}: repeated tensor 'w'$"):
        load_archive(path)
