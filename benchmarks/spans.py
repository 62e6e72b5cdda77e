"""Outside-in span recorder for the benchmark's traced repetitions.

The program under test knows nothing of it.  `instrumented` replaces each
layer's public functions at the module attributes their callers look up
(`from x import f` binds a name per importing module, so every such module
is a site), records one span per call in memory, and puts the originals
back on exit.  Hot inner helpers such as `cube.ball_down` are never wrapped.
`layer_metrics` turns a finished span list into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


class Recorder:
    """Spans as dicts: id, name, parent id, start, end, plus per-call counts."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn, note=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "name": name,
                "parent": self._open[-1] if self._open else None,
                "start": time.perf_counter(),
                "end": None,
            }
            self.spans.append(span)
            self._open.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if note is not None:
                span.update(note(args, result))
            return result

        return wrapper


def _noop() -> None:
    pass


def wrapper_cost(calls: int = 20_000) -> float:
    """Seconds one wrapped call adds to a bare call, measured in this process.

    The spans of a repetition times this cost is its tracing overhead.
    """
    wrapped = Recorder().wrap("calibration", _noop)
    start = time.perf_counter()
    for _ in range(calls):
        _noop()
    bare = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        wrapped()
    return max(0.0, (time.perf_counter() - start - bare) / calls)


def _ip(objective: str):
    return lambda args, res: {"key": f"{objective}:{args[0]}:{args[1]}", "nodes": res.node_count}


def _exact(args, res) -> dict:
    return {"nodes": res.nodes, "settled": res.status == "exact"}


def _words(args, res) -> dict:
    return {"words": len(res)}


def _vertices(args, res) -> dict:
    return {"vertices": 1 << args[0].n}


def _tightened(args, res) -> dict:
    grid = args[0]
    return {"tightened": sum(1 for key, rec in res.items() if grid.get(key) != rec)}


def _file_bytes(args, res) -> dict:
    return {"bytes": os.path.getsize(args[0])}


# (module, attribute, span name, note).  One line per importing module.
SITES = (
    ("asymcover.cli", "main", "cli", None),
    ("asymcover.cli", "build_grid", "table.build_grid", None),
    ("asymcover.cli", "best_bounds", "bounds.best_bounds", None),
    ("asymcover.table", "best_bounds", "bounds.best_bounds", None),
    ("asymcover.table", "propagate", "bounds.propagate", _tightened),
    ("asymcover.table", "load_cache", "table.cache.load", None),
    ("asymcover.table", "save_cache", "table.cache.save", _file_bytes),
    ("asymcover.ipsolve", "ip_plus", "ipsolve", _ip("plus")),
    ("asymcover.ipsolve", "ip_phi", "ipsolve", _ip("phi")),
    ("asymcover.cli", "exact_kplus", "exact", _exact),
    ("asymcover.exact", "exact_kplus", "exact", _exact),
    ("asymcover.cli", "greedy_code", "constructions.greedy", _words),
    ("asymcover.bounds", "greedy_code", "constructions.greedy", _words),
    ("asymcover.exact", "greedy_code", "constructions.greedy", _words),
    ("asymcover.cli", "random_code_nu", "constructions.nu", _words),
    ("asymcover.bounds", "random_code_nu", "constructions.nu", _words),
    ("asymcover.cli", "covers", "cube.covers", _vertices),
    ("asymcover.exact", "covers", "cube.covers", _vertices),
    ("asymcover.linear", "covers", "cube.covers", _vertices),
    ("asymcover.cli", "uncovered", "cube.uncovered", _vertices),
    ("asymcover.constructions", "uncovered", "cube.uncovered", _vertices),
    ("asymcover.cli", "code_covering_radius", "linear.radius", None),
    ("asymcover.codefiles", "load_code", "codefiles.load", None),
    ("asymcover.codefiles", "save_code", "codefiles.save", _file_bytes),
)

# The node-count sources.  Untraced repetitions wrap only these (a few
# hundred calls per repetition at most), so that node counts sit next to
# wall time on every run.
COUNT_SITES = tuple(site for site in SITES if site[2] in ("ipsolve", "exact"))


@contextmanager
def instrumented(recorder: Recorder, sites=SITES):
    """Wrap every site for the duration of the block, then restore it."""
    saved = []
    try:
        for module_name, attr, name, note in sites:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                print(f"trace: {module_name}.{attr} not found, not traced", file=sys.stderr)
                continue
            saved.append((module, attr, original))
            setattr(module, attr, recorder.wrap(name, original, note))
        yield recorder
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append(span)
    out = {}
    for span in spans:
        covered, cursor = 0.0, span["start"]
        for child in sorted(children[span["id"]], key=lambda c: c["start"]):
            lo, hi = max(child["start"], cursor), min(child["end"], span["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span["id"]] = span["end"] - span["start"] - covered
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one repetition's spans.

    Every per-layer metric of BENCHMARK.json but trace.overhead_s, which
    rep.py adds from `wrapper_cost`.
    """
    own = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    total: dict[tuple[str, str], int] = defaultdict(int)
    for span in spans:
        name = span["name"]
        calls[name] += 1
        self_s[name] += own[span["id"]]
        for field in ("nodes", "words", "vertices", "tightened", "bytes", "settled"):
            if field in span:
                total[name, field] += span[field]
    saves = [s["bytes"] for s in spans if s["name"] == "table.cache.save"]
    keys = {s["key"] for s in spans if s["name"] == "ipsolve"}
    swept = total["cube.covers", "vertices"] + total["cube.uncovered", "vertices"]
    sweep_s = self_s["cube.covers"] + self_s["cube.uncovered"]
    return {
        "cube.covers.calls": calls["cube.covers"],
        "cube.covers.self_s": self_s["cube.covers"],
        "cube.uncovered.calls": calls["cube.uncovered"],
        "cube.uncovered.self_s": self_s["cube.uncovered"],
        "cube.vertices_swept": swept,
        "cube.sweep_rate": _ratio(swept, sweep_s),
        "linear.radius.calls": calls["linear.radius"],
        "linear.radius.self_s": self_s["linear.radius"],
        "constructions.greedy.calls": calls["constructions.greedy"],
        "constructions.greedy.self_s": self_s["constructions.greedy"],
        "constructions.greedy.words": total["constructions.greedy", "words"],
        "constructions.nu.calls": calls["constructions.nu"],
        "constructions.nu.self_s": self_s["constructions.nu"],
        "constructions.nu.words": total["constructions.nu", "words"],
        "ipsolve.solves": calls["ipsolve"],
        "ipsolve.self_s": self_s["ipsolve"],
        "ipsolve.nodes": total["ipsolve", "nodes"],
        "ipsolve.nodes_per_s": _ratio(total["ipsolve", "nodes"], self_s["ipsolve"]),
        "ipsolve.distinct_ratio": _ratio(len(keys), calls["ipsolve"]),
        "exact.calls": calls["exact"],
        "exact.self_s": self_s["exact"],
        "exact.nodes": total["exact", "nodes"],
        "exact.nodes_per_s": _ratio(total["exact", "nodes"], self_s["exact"]),
        "exact.settled_ratio": _ratio(total["exact", "settled"], calls["exact"]),
        "bounds.best_bounds.calls": calls["bounds.best_bounds"],
        "bounds.best_bounds.self_s": self_s["bounds.best_bounds"],
        "bounds.propagate.self_s": self_s["bounds.propagate"],
        "bounds.propagate.tightened": total["bounds.propagate", "tightened"],
        "table.build_grid.self_s": self_s["table.build_grid"],
        "table.cache.load_s": self_s["table.cache.load"],
        "table.cache.save_s": self_s["table.cache.save"],
        "table.cache.bytes": max(saves, default=0),
        "codefiles.load_s": self_s["codefiles.load"],
        "codefiles.save_s": self_s["codefiles.save"],
        "codefiles.bytes": total["codefiles.save", "bytes"],
        "cli.self_s": self_s["cli"],
    }
