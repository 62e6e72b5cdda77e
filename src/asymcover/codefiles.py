"""Code file serialization.

JSON form: {"n": int, "r": int|null, "words": ["<bitstring>", ...]} where each
bitstring has exactly n characters and coordinate 1 is written LEFTMOST.
Plaintext form (hand-authoring): first line "n R" (R may be "-" when unset),
then one bitstring per line.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

from .cube import Code


def word_to_bits(mask: int, n: int) -> str:
    """Serialize a mask; coordinate 1 (least significant bit) goes leftmost."""
    return "".join("1" if mask >> i & 1 else "0" for i in range(n))


def bits_to_word(s: str, n: int) -> int:
    if len(s) != n:
        raise ValueError(f"word {s!r} has length {len(s)}, expected {n}")
    mask = 0
    for i, ch in enumerate(s):
        if ch == "1":
            mask |= 1 << i
        elif ch != "0":
            raise ValueError(f"word {s!r} has character {ch!r} outside {{0,1}}")
    return mask


def to_json_text(code: Code) -> str:
    obj = {
        "n": code.n,
        "r": code.r,
        "words": [word_to_bits(w, code.n) for w in code.words],
    }
    return json.dumps(obj, indent=1) + "\n"


def to_plain_text(code: Code) -> str:
    head = f"{code.n} {'-' if code.r is None else code.r}"
    return "\n".join([head] + [word_to_bits(w, code.n) for w in code.words]) + "\n"


def _dedupe(n: int, words, r, origin: str) -> Code:
    seen = set()
    dupes = 0
    for w in words:
        if w in seen:
            dupes += 1
        seen.add(w)
    if dupes:
        print(f"warning: {origin}: removed {dupes} duplicate word(s)", file=sys.stderr)
    return Code.from_words(n, seen, r)


def from_json_text(text: str, origin: str = "<json>") -> Code:
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError(f"{origin}: expected a JSON object")
    try:
        n = obj["n"]
        words = obj["words"]
    except KeyError as exc:
        raise ValueError(f"{origin}: missing field {exc}") from None
    r = obj.get("r")
    if not isinstance(n, int):
        raise ValueError(f"{origin}: n must be an integer")
    if r is not None and not isinstance(r, int):
        raise ValueError(f"{origin}: r must be an integer or null")
    if not isinstance(words, list):
        raise ValueError(f"{origin}: words must be a list")
    return _dedupe(n, (bits_to_word(s, n) for s in words), r, origin)


def from_plain_text(text: str, origin: str = "<text>") -> Code:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError(f"{origin}: empty file")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"{origin}: first line must be 'n R', got {lines[0]!r}")
    n = int(head[0])
    r = None if head[1] == "-" else int(head[1])
    return _dedupe(n, (bits_to_word(s, n) for s in lines[1:]), r, origin)


def loads(text: str, origin: str = "<input>") -> Code:
    """Parse either format; JSON is detected by a leading '{'."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return from_json_text(text, origin)
    return from_plain_text(text, origin)


def load_code(path: str) -> Code:
    with open(path, encoding="utf-8") as fh:
        return loads(fh.read(), origin=path)


def write_atomic(path: str, text: str) -> None:
    """Write `text` to a temporary file beside `path`, then rename it over
    `path`; on any failure the temporary file is removed and `path` is left
    as it was."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=f".{os.path.basename(path)}-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def save_code(path: str, code: Code, fmt: str = "json") -> None:
    """Write the code in `fmt` ("json" or "text") atomically."""
    if fmt == "json":
        payload = to_json_text(code)
    elif fmt == "text":
        payload = to_plain_text(code)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    write_atomic(path, payload)
