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

from .cube import Code


def word_to_bits(mask: int, n: int) -> str:
    """Serialize a mask; coordinate 1 (least significant bit) goes leftmost."""
    return format(mask, f"0{n}b")[::-1]


def bits_to_word(s: str, n: int) -> int:
    if len(s) != n:
        raise ValueError(f"word {s!r} has length {len(s)}, expected {n}")
    # checked first: int() would also take "_", whitespace and a sign
    bad = s.lstrip("01")  # starts at the first other character
    if bad:
        raise ValueError(f"word {s!r} has character {bad[0]!r} outside {{0,1}}")
    return int(s[::-1] or "0", 2)  # "" at n = 0 reaches Code's own check on n


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
    if not isinstance(words, list) or not all(type(s) is str for s in words):
        raise ValueError("words must be a list of bitstrings")
    return _dedupe(n, (bits_to_word(s, n) for s in words), r, origin)


def from_plain_text(text: str, origin: str = "<text>") -> Code:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty file")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"first line must be 'n R', got {lines[0]!r}")
    n = int(head[0])
    r = None if head[1] == "-" else int(head[1])
    return _dedupe(n, (bits_to_word(s, n) for s in lines[1:]), r, origin)


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


def write_atomic(path: str, text: str) -> None:
    """Write `text` to a temporary file beside `path`, then rename it over
    `path`; on any failure the temporary file is removed and `path` is left
    as it was.  The file gets the mode that open(path, "w") would give it:
    the mode of the file it replaces, else 0o666 less the umask."""
    directory, base = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f".{base}-{os.urandom(6).hex()}.tmp")
    fh = open(tmp, "x", encoding="utf-8")  # created with the mode open(path, "w") gives
    try:
        with fh:
            fh.write(text)
        with contextlib.suppress(FileNotFoundError):  # a new file keeps that mode
            os.chmod(tmp, stat.S_IMODE(os.stat(path).st_mode))
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
