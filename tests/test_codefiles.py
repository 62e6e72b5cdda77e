"""Serialization: bitstring convention, json and text formats, file round trips."""

import json
import os
import random
import re

import pytest

from asymcover import cli, codefiles
from asymcover.cube import Code


def test_bitstring_convention_low_bit_leftmost():
    # "011" puts coordinate 1 first; coordinates 2 and 3 are set
    assert codefiles.bits_to_word("011", 3) == 0b110
    assert codefiles.words_to_bits([0b110], 3) == ["011"]
    assert codefiles.bits_to_word("100", 3) == 1
    bits = codefiles.words_to_bits(range(16), 4)
    assert [codefiles.bits_to_word(s, 4) for s in bits] == list(range(16))


def test_bits_to_word_validates():
    with pytest.raises(ValueError):
        codefiles.bits_to_word("01", 3)
    with pytest.raises(ValueError):
        codefiles.bits_to_word("012", 3)


def test_json_round_trip():
    code = Code.from_words(3, [7, 6, 1], r=1)
    text = "".join(codefiles.code_pieces(code))
    data = json.loads(text)
    assert data["n"] == 3
    assert data["r"] == 1
    assert set(data["words"]) == {"111", "011", "100"}
    back = codefiles.from_json_text(text)
    assert back == code


def test_json_without_radius():
    code = Code.from_words(2, [0, 3])
    back = codefiles.from_json_text("".join(codefiles.code_pieces(code)))
    assert back.r is None
    assert back.words == (0, 3)


def test_plain_text_round_trip():
    code = Code.from_words(3, [7, 6, 1], r=1)
    text = "".join(codefiles.code_pieces(code, "text"))
    first = text.splitlines()[0].split()
    assert first[0] == "3"
    back = codefiles.from_plain_text(text)
    assert back == code


def test_loads_autodetects_format():
    code = Code.from_words(4, [0b1010, 0b1111], r=2)
    assert codefiles.loads("".join(codefiles.code_pieces(code))) == code
    assert codefiles.loads("".join(codefiles.code_pieces(code, "text"))) == code


def test_duplicate_words_warn_and_collapse(capsys):
    text = "3 1\n111\n111\n100\n"
    code = codefiles.from_plain_text(text)
    assert code.words == (1, 7)
    assert "duplicate" in capsys.readouterr().err


@pytest.mark.parametrize(
    "word,message",
    [
        ("01", "word '01' has length 2, expected 3"),
        ("012", "word '012' has character '2' outside {0,1}"),
        ("0_1", "word '0_1' has character '_' outside {0,1}"),  # int("1_0", 2) == 2
        (" 01", "word ' 01' has character ' ' outside {0,1}"),  # int("10 ", 2) == 2
    ],
    ids=["short", "digit-2", "underscore", "space"],
)
def test_json_names_the_first_bad_word(word, message):
    text = json.dumps({"n": 3, "r": 1, "words": ["111", "110", word, "0x1", "1"]})
    with pytest.raises(ValueError) as caught:
        codefiles.from_json_text(text)
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "fmt,r,size",
    [(fmt, r, size) for r, size in [(4, 3475), (None, 3475), (4, 0)] for fmt in ("json", "text")],
    ids=["json", "text", "json-no-r", "text-no-r", "json-empty", "text-empty"],
)
def test_large_code_round_trips_byte_identically(fmt, r, size, tmp_path):
    code = Code.from_words(16, random.Random(16).sample(range(1 << 16), size), r=r)
    bits = [f"{w:016b}"[::-1] for w in code.words]
    expected = {  # the whole file, laid out here rather than by save_code
        "json": json.dumps({"n": 16, "r": r, "words": bits}, indent=1) + "\n",
        "text": "\n".join([f"16 {'-' if r is None else r}", *bits]) + "\n",
    }[fmt]
    first, second = tmp_path / "first", tmp_path / "second"
    codefiles.save_code(str(first), code, fmt=fmt)
    assert first.read_text() == expected
    back = codefiles.load_code(str(first))
    assert back == code
    codefiles.save_code(str(second), back, fmt=fmt)
    assert second.read_bytes() == first.read_bytes()


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("size", [0, 1, 2, 3, 5])
def test_a_code_saved_in_pieces_has_the_one_piece_layout(fmt, size, tmp_path, monkeypatch):
    # two words a piece: an empty code, a lone piece, a full one and one past it
    monkeypatch.setattr(codefiles, "PIECE_WORDS", 2)
    code = Code.from_words(5, random.Random(size).sample(range(32), size), r=2)
    bits = [f"{w:05b}"[::-1] for w in code.words]
    expected = {
        "json": json.dumps({"n": 5, "r": 2, "words": bits}, indent=1) + "\n",
        "text": "\n".join(["5 2", *bits]) + "\n",
    }[fmt]
    path = tmp_path / "c"
    codefiles.save_code(str(path), code, fmt=fmt)
    assert path.read_bytes() == expected.encode()


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_bulk_and_per_word_codecs_agree(fmt, tmp_path):
    rng = random.Random(20)
    for n in range(1, 21):
        top = (1 << n) - 1
        words = {0, top, *(rng.getrandbits(n) for _ in range(rng.randint(0, 40)))}
        code = Code.from_words(n, words, r=rng.choice([None, n // 2]))
        bits = codefiles.words_to_bits(code.words, n)
        assert bits == [format(w, f"0{n}b")[::-1] for w in code.words]
        assert codefiles.bits_to_words(bits, n) == [codefiles.bits_to_word(s, n) for s in bits]
        path = tmp_path / f"code-{n}"
        codefiles.save_code(str(path), code, fmt=fmt)
        assert codefiles.load_code(str(path)) == code


@pytest.mark.parametrize(
    "word,message",
    [
        ("01", "word '01' has length 2, expected 3"),
        ("0110", "word '0110' has length 4, expected 3"),
        ("012", "word '012' has character '2' outside {0,1}"),
        ("0_1", "word '0_1' has character '_' outside {0,1}"),
        ("0 1", "word '0 1' has character ' ' outside {0,1}"),
        ("+01", "word '+01' has character '+' outside {0,1}"),
        ("-01", "word '-01' has character '-' outside {0,1}"),
    ],
    ids=["short", "long", "digit-2", "underscore", "space", "plus", "minus"],
)
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_a_file_names_its_first_bad_word(fmt, word, message, tmp_path):
    words = ["111", "110", word, "01", "1x1"]
    path = tmp_path / "bad"
    if fmt == "json":
        path.write_text(json.dumps({"n": 3, "r": 1, "words": words}))
    else:
        path.write_text("\n".join(["3 1", *words]) + "\n")
    with pytest.raises(ValueError) as caught:
        codefiles.load_code(str(path))
    assert str(caught.value) == f"{path}: {message}"


def test_the_empty_word_at_n_0_reaches_the_check_on_n(tmp_path):
    path = tmp_path / "zero.json"
    path.write_text('{"n": 0, "r": 0, "words": ["", ""]}')
    with pytest.raises(ValueError) as caught:
        codefiles.load_code(str(path))
    assert str(caught.value) == f"{path}: need 1 <= n <= 62, got n=0"


def test_reject_malformed_json():
    with pytest.raises(ValueError):
        codefiles.from_json_text('{"n": 3}')
    with pytest.raises(ValueError):
        codefiles.from_json_text('{"n": 3, "words": ["01"]}')
    with pytest.raises(ValueError, match="^expected a JSON object$"):
        codefiles.from_json_text("[]")


@pytest.mark.parametrize(
    "text,field",
    [
        ('{"n": 2, "r": 1, "words": ["11", 5]}', "words"),
        ('{"n": 2, "r": 1, "words": ["11", null]}', "words"),
        ('{"n": true, "r": 1, "words": ["1"]}', "n"),
        ('{"n": 2, "r": true, "words": ["11"]}', "r"),
    ],
    ids=["int-word", "null-word", "bool-n", "bool-r"],
)
def test_reject_json_fields_of_the_wrong_type(text, field, tmp_path):
    path = tmp_path / "code.json"
    path.write_text(text)
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: {field} must be"):
        codefiles.load_code(str(path))


def test_verify_names_the_file_of_a_non_string_word(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 2, "r": 1, "words": ["11", 5]}')
    assert cli.main(["verify", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: words must be a list of bitstrings\n"


@pytest.mark.parametrize(
    "data,message",
    [
        (b"2 1\n11\n1x\n", "word '1x' has character 'x' outside {0,1}"),
        (b"x 1\n11\n", "invalid literal for int() with base 10: 'x'"),
        (b'{"n": 0, "r": 0, "words": []}', "need 1 <= n <= 62, got n=0"),
        (b'{"n": 2, "r": 1, "words": ["11"', "Expecting ',' delimiter: line 1 column 32 (char 31)"),
        (b"2 1\n11\n\xff\xfe\n",
         "'utf-8' codec can't decode byte 0xff in position 7: invalid start byte"),
        (b"", "empty file"),
        (b" \n\n", "empty file"),
        (b"2\n11\n", "first line must be 'n R', got '2'"),
        (b"2 1 0\n11\n", "first line must be 'n R', got '2 1 0'"),
    ],
    ids=["bad-word", "bad-header", "n-out-of-range", "truncated-json", "not-utf-8",
         "empty", "blank", "header-one-field", "header-three-fields"],
)
def test_verify_names_the_file_of_any_bad_input(data, message, tmp_path, capsys):
    path = tmp_path / "bad.code"
    path.write_bytes(data)
    assert cli.main(["verify", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: {message}\n"


def test_directsum_names_its_bad_input(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    codefiles.save_code("a.json", Code.from_words(2, [3], r=1))
    (tmp_path / "b.txt").write_text("2 1\n11\n1x\n")
    argv = ["construct", "--method", "directsum", "--in1", "a.json", "--in2", "b.txt",
            "--out", "o.json"]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: b.txt: word '1x' has character 'x' outside {0,1}\n"
    assert not os.path.exists("o.json")


def test_duplicate_word_warning_names_the_file(tmp_path, capsys):
    path = tmp_path / "dup.txt"
    path.write_text("2 1\n11\n11\n")
    assert codefiles.load_code(str(path)).words == (3,)
    assert capsys.readouterr().err == f"warning: {path}: removed 1 duplicate word(s)\n"


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


@pytest.fixture(params=[0o022, 0o077], ids=["umask-022", "umask-077"])
def umask(request):
    old = os.umask(request.param)
    yield request.param
    os.umask(old)


def test_save_gives_the_file_the_mode_of_open(umask, tmp_path):
    # a new file: 0o666 less the umask, like a plain open(); a replaced file keeps its mode
    code = Code.from_words(2, [3], r=1)
    plain, path = tmp_path / "plain", tmp_path / "c.json"
    plain.write_text("x\n")
    codefiles.save_code(str(path), code)
    assert os.stat(path).st_mode & 0o777 == os.stat(plain).st_mode & 0o777 == 0o666 & ~umask
    os.chmod(path, 0o640)
    codefiles.save_code(str(path), code)
    assert os.stat(path).st_mode & 0o777 == 0o640
    assert sorted(os.listdir(tmp_path)) == ["c.json", "plain"]


def test_save_rejects_unknown_format(tmp_path):
    with pytest.raises(ValueError):
        codefiles.save_code(str(tmp_path / "x"), Code.from_words(1, [1]), fmt="xml")
