"""Code file serialization.

JSON form: {"n": int, "r": int|null, "words": ["<bitstring>", ...]} where each
bitstring has exactly n characters and coordinate 1 is written LEFTMOST.
Plaintext form (hand-authoring): first line "n R" (R may be "-" when unset),
then one bitstring per line.
"""

from __future__ import annotations

import contextlib
import json
import os
import stat
import sys
from collections.abc import Iterable, Iterator
from itertools import repeat
from operator import itemgetter, or_

from .cube import Code

_NOT_BITS = str.maketrans("", "", "01")  # deletes the two bit characters
_REVERSED = itemgetter(slice(None, None, -1))
_LOW_BITS_FIRST = itemgetter(slice(None, 2, -1))  # reversed, less the "1b0" of "0b1"
# words per piece of a saved file, so that no file's whole text is held at once
PIECE_WORDS = 1 << 16


def words_to_bits(words, n: int) -> list[str]:
    """Serialize masks; coordinate 1 (least significant bit) goes leftmost.

    bin(w | 2^n) is "0b1" and then the n bits of w, high bit first.
    """
    return list(map(_LOW_BITS_FIRST, map(bin, map(or_, words, repeat(1 << n)))))


def bits_to_words(bits: list[str], n: int) -> list[int]:
    """Decode bitstrings, all checked at once; a bad one raises
    `bits_to_word`'s error for the first."""
    if set(map(len, bits)) - {n} or "".join(bits).translate(_NOT_BITS):
        for s in bits:
            bits_to_word(s, n)
    if n == 0:  # int("", 2) would raise; Code's own check on n does
        return [0] * len(bits)
    return list(map(int, map(_REVERSED, bits), repeat(2)))


def bits_to_word(s: str, n: int) -> int:
    if len(s) != n:
        raise ValueError(f"word {s!r} has length {len(s)}, expected {n}")
    # checked first: int() would also take "_", whitespace and a sign
    bad = s.lstrip("01")  # starts at the first other character
    if bad:
        raise ValueError(f"word {s!r} has character {bad[0]!r} outside {{0,1}}")
    return int(s[::-1] or "0", 2)  # "" at n = 0 reaches Code's own check on n


def code_pieces(code: Code, fmt: str = "json") -> Iterator[str]:
    """The text of `code` in `fmt` ("json" or "text"), PIECE_WORDS words a piece.

    JSON comes byte for byte as json.dumps(obj, indent=1) + "\\n" lays it out,
    joined directly: with an indent, json.dumps runs its pure-Python encoder,
    and a bitstring needs no escaping.
    """
    if fmt == "json":
        r = "null" if code.r is None else code.r
        head = f'{{\n "n": {code.n},\n "r": {r},\n "words": '
        start, sep, end, empty = head + '[\n  "', '",\n  "', '"\n ]\n}\n', head + "[]\n}\n"
    elif fmt == "text":
        start = empty = f"{code.n} {'-' if code.r is None else code.r}\n"
        sep = end = "\n"
    else:
        raise ValueError(f"unknown format {fmt!r}")
    return _pieces(code, start, sep, end) if code.words else iter([empty])


def _pieces(code: Code, start: str, sep: str, end: str) -> Iterator[str]:
    """start, the bitstrings joined by sep, end, in pieces of PIECE_WORDS words."""
    for i in range(0, len(code.words), PIECE_WORDS):
        yield start + sep.join(words_to_bits(code.words[i:i + PIECE_WORDS], code.n))
        start = sep
    yield end


def _dedupe(n: int, words: list[int], r, origin: str) -> Code:
    unique = set(words)
    dupes = len(words) - len(unique)
    if dupes:
        print(f"warning: {origin}: removed {dupes} duplicate word(s)", file=sys.stderr)
    return Code(n, tuple(sorted(unique)), r)


def from_json_text(text: str, origin: str = "<json>") -> Code:
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError("expected a JSON object")
    try:
        n = obj["n"]
        words = obj["words"]
    except KeyError as exc:
        raise ValueError(f"missing field {exc}") from None
    r = obj.get("r")
    if type(n) is not int:
        raise ValueError("n must be an integer")
    if r is not None and type(r) is not int:
        raise ValueError("r must be an integer or null")
    if not isinstance(words, list) or not set(map(type, words)) <= {str}:
        raise ValueError("words must be a list of bitstrings")
    return _dedupe(n, bits_to_words(words, n), r, origin)


def from_plain_text(text: str, origin: str = "<text>") -> Code:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty file")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"first line must be 'n R', got {lines[0]!r}")
    n = int(head[0])
    r = None if head[1] == "-" else int(head[1])
    return _dedupe(n, bits_to_words(lines[1:], n), r, origin)


def loads(text: str, origin: str = "<input>") -> Code:
    """Parse either format; JSON is detected by a leading '{'.  `origin` names
    the text in the duplicate-word warning; `load_code` names it in errors."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return from_json_text(text, origin)
    return from_plain_text(text, origin)


def load_code(path: str) -> Code:
    """Read a code file; any ValueError from decoding, parsing or building
    its Code is raised again with the path in front."""
    try:
        with open(path, encoding="utf-8") as fh:
            return loads(fh.read(), origin=path)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_atomic(path: str, pieces: Iterable[str]) -> None:
    """Write the text `pieces` to a temporary file beside `path`, then rename it over
    `path`; on any failure the temporary file is removed and `path` is left
    as it was.  The file gets the mode that open(path, "w") would give it:
    the mode of the file it replaces, else 0o666 less the umask."""
    directory, base = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f".{base}-{os.urandom(6).hex()}.tmp")
    fh = open(tmp, "x", encoding="utf-8")  # created with the mode open(path, "w") gives
    try:
        with fh:
            fh.writelines(pieces)
        with contextlib.suppress(FileNotFoundError):  # a new file keeps that mode
            os.chmod(tmp, stat.S_IMODE(os.stat(path).st_mode))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def save_code(path: str, code: Code, fmt: str = "json") -> None:
    """Write the code in `fmt` ("json" or "text") atomically, a piece at a time."""
    write_atomic(path, code_pieces(code, fmt))
