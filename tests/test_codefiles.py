"""Serialization: bitstring convention, json and text formats, file round trips."""

import json
import os

import pytest

from asymcover import codefiles
from asymcover.cube import Code


def test_bitstring_convention_low_bit_leftmost():
    # "011" puts coordinate 1 first; coordinates 2 and 3 are set
    assert codefiles.bits_to_word("011", 3) == 0b110
    assert codefiles.word_to_bits(0b110, 3) == "011"
    assert codefiles.bits_to_word("100", 3) == 1
    for mask in range(16):
        assert codefiles.bits_to_word(codefiles.word_to_bits(mask, 4), 4) == mask


def test_bits_to_word_validates():
    with pytest.raises(ValueError):
        codefiles.bits_to_word("01", 3)
    with pytest.raises(ValueError):
        codefiles.bits_to_word("012", 3)


def test_json_round_trip():
    code = Code.from_words(3, [7, 6, 1], r=1)
    text = codefiles.to_json_text(code)
    data = json.loads(text)
    assert data["n"] == 3
    assert data["r"] == 1
    assert set(data["words"]) == {"111", "011", "100"}
    back = codefiles.from_json_text(text)
    assert back == code


def test_json_without_radius():
    code = Code.from_words(2, [0, 3])
    back = codefiles.from_json_text(codefiles.to_json_text(code))
    assert back.r is None
    assert back.words == (0, 3)


def test_plain_text_round_trip():
    code = Code.from_words(3, [7, 6, 1], r=1)
    text = codefiles.to_plain_text(code)
    first = text.splitlines()[0].split()
    assert first[0] == "3"
    back = codefiles.from_plain_text(text)
    assert back == code


def test_loads_autodetects_format():
    code = Code.from_words(4, [0b1010, 0b1111], r=2)
    assert codefiles.loads(codefiles.to_json_text(code)) == code
    assert codefiles.loads(codefiles.to_plain_text(code)) == code


def test_duplicate_words_warn_and_collapse(capsys):
    text = "3 1\n111\n111\n100\n"
    code = codefiles.from_plain_text(text)
    assert code.words == (1, 7)
    assert "duplicate" in capsys.readouterr().err


def test_reject_malformed_json():
    with pytest.raises(ValueError):
        codefiles.from_json_text('{"n": 3}')
    with pytest.raises(ValueError):
        codefiles.from_json_text('{"n": 3, "words": ["01"]}')


def test_save_and_load_files(tmp_path):
    code = Code.from_words(5, [31, 7, 24], r=2)
    for fmt in ("json", "text"):
        path = str(tmp_path / f"code.{fmt}")
        codefiles.save_code(path, code, fmt=fmt)
        assert codefiles.load_code(path) == code


def test_save_is_atomic_no_stray_temp(tmp_path):
    path = str(tmp_path / "c.json")
    codefiles.save_code(path, Code.from_words(2, [3], r=1))
    assert os.listdir(tmp_path) == ["c.json"]


def test_failed_save_leaves_the_directory_unchanged(tmp_path, monkeypatch):
    code = Code.from_words(2, [3], r=1)
    (tmp_path / "d").mkdir()
    with pytest.raises(OSError):
        codefiles.save_code(str(tmp_path / "d"), code)  # a directory is in the way
    assert os.listdir(tmp_path) == ["d"] and os.listdir(tmp_path / "d") == []

    path = tmp_path / "c.json"
    path.write_text("old\n")

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(codefiles.os, "replace", refuse)
    with pytest.raises(OSError):
        codefiles.save_code(str(path), code)
    assert sorted(os.listdir(tmp_path)) == ["c.json", "d"]
    assert path.read_text() == "old\n"


def test_save_rejects_unknown_format(tmp_path):
    with pytest.raises(ValueError):
        codefiles.save_code(str(tmp_path / "x"), Code.from_words(1, [1]), fmt="xml")
