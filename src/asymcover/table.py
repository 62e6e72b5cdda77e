"""Bound-table assembly: per-cell aggregation, propagation, render, cache.

The working grid always spans n = 1..n_max with the radius-zero column and
every R up to min(n, r_max), so monotonicity chains and direct-sum splits
have their neighbors available; rendering then restricts to the requested
window.  Each column R is walked up from the cell below: a cell's difference
chain steps from the (n-1, R) lower bound computed or cached just before it.
The cache is a JSON object written atomically: its key, the node limit and
package version its cells were computed under, and the map "n,R" -> record.
Under the same key the cells are reused, each checked as a record; under any
other key every cell is recomputed and the file overwritten.  A file that is
not a cache is refused, and a run that changes no record rewrites nothing.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import asymcover
from .bounds import BoundRecord, best_bounds, propagate
from .codefiles import write_atomic
from .cube import check_dimension
from .ipsolve import DEFAULT_NODE_CAP


@dataclass(frozen=True)
class TableSpec:
    """What slice of the bound table to produce and how hard to try."""

    n_min: int
    n_max: int
    r_min: int
    r_max: int
    node_limit: int = DEFAULT_NODE_CAP
    cache_path: str | None = None

    def __post_init__(self) -> None:
        if not 1 <= self.n_min <= self.n_max:
            raise ValueError("need 1 <= n_min <= n_max")
        check_dimension(self.n_max)  # before any cell is built
        if not 0 <= self.r_min <= self.r_max:
            raise ValueError("need 0 <= r_min <= r_max")
        if self.node_limit <= 0:
            raise ValueError("node_limit must be positive")


def cell_dicts(grid: dict[tuple[int, int], BoundRecord]) -> dict[str, dict]:
    """The grid as JSON: "n,R" -> record, in cell order."""
    return {f"{n},{R}": rec.to_dict() for (n, R), rec in sorted(grid.items())}


def _cache_key(node_limit: int) -> dict:
    """What a cache's cells were computed under: the node limit and the package version."""
    return {"node_limit": node_limit, "version": asymcover.__version__}


def load_cache(path: str, node_limit: int) -> dict[tuple[int, int], BoundRecord]:
    """The cells cached at `path`, each checked as a record, if its key is
    `_cache_key(node_limit)`; under any other key, {}, with no cell read.

    Raises ValueError naming the path when the file is not a bound cache or a
    cell it would reuse is no record, so that build_grid never overwrites it.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
        # 0.2.0 and before keyed a cache by a "budget" object
        if not (isinstance(raw, dict) and isinstance(raw.get("cells"), dict)
                and raw.keys() <= {"node_limit", "budget", "version", "cells"}):
            raise ValueError('expected an object with "node_limit" and "cells"')
        # type-strict, as JSON's true and 1000.0 equal 1 and 1000 in Python
        if raw != {**_cache_key(node_limit), "cells": raw["cells"]} or type(raw["node_limit"]) is not int:
            return {}
        grid = {}
        for key, d in raw["cells"].items():
            rec = BoundRecord.from_dict(d)
            if key != f"{rec.n},{rec.R}":
                raise ValueError(f"cell {key!r} holds the record of n={rec.n}, R={rec.R}")
            grid[(rec.n, rec.R)] = rec
        return grid
    except ValueError as exc:
        raise ValueError(f"{path} is not a bound cache: {exc}") from None


def save_cache(path: str, grid: dict[tuple[int, int], BoundRecord], node_limit: int) -> None:
    payload = {**_cache_key(node_limit), "cells": cell_dicts(grid)}
    write_atomic(path, [json.dumps(payload, indent=1, sort_keys=True) + "\n"])


def build_grid(spec: TableSpec) -> dict[tuple[int, int], BoundRecord]:
    """Aggregate per-cell bounds one column R at a time, each walked up from
    the cell below it (cache hits skip the work), then propagate.  A record's
    `limit_hit` covers only its own cell's sources, not an "lp" step below
    it, so `table`'s exit reads the whole grid, which holds that step."""
    cached: dict[tuple[int, int], BoundRecord] = {}
    if spec.cache_path and os.path.exists(spec.cache_path):
        cached = load_cache(spec.cache_path, spec.node_limit)
    grid = {}
    for R in range(spec.r_max + 1):
        below = None  # the column's first cell has R = 0 or R = n, and no chain step
        for n in range(max(R, 1), spec.n_max + 1):
            rec = cached.get((n, R)) or best_bounds(n, R, spec.node_limit, below)
            grid[(n, R)] = rec
            below = rec.lower
    grid = propagate(grid)
    # another node limit's or version's cache loads as {}, so an unchanged grid
    # implies the same key
    if spec.cache_path and any(cached.get(key) != rec for key, rec in grid.items()):
        # cached cells outside this window stay for the runs that need them
        save_cache(spec.cache_path, {**cached, **grid}, spec.node_limit)
    return grid


def render_cell(rec: BoundRecord) -> str:
    """'v[lt/ut]' or 'a-b[lt/ut]'; definitional cells are printed bare."""
    if rec.R == 0 or rec.R >= rec.n:
        return str(rec.lower)
    if rec.exact:
        return f"{rec.lower}[{rec.lower_tag}/{rec.upper_tag}]"
    return f"{rec.lower}-{rec.upper}[{rec.lower_tag}/{rec.upper_tag}]"


def render_table(grid: dict[tuple[int, int], BoundRecord], spec: TableSpec) -> str:
    """Rows R, columns n; cells outside the triangle (R > n) are the constant 1."""
    ns = list(range(spec.n_min, spec.n_max + 1))
    header = ["R\\n"] + [str(n) for n in ns]
    rows = [header]
    for R in range(spec.r_min, spec.r_max + 1):
        rows.append([str(R)] + ["1" if R > n else render_cell(grid[(n, R)]) for n in ns])
    widths = [max(len(row[c]) for row in rows) for c in range(len(header))]
    lines = [
        "  ".join(cell.rjust(widths[c]) for c, cell in enumerate(row)) for row in rows
    ]
    return "\n".join(lines)
