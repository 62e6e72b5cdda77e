"""Bound-table assembly: per-cell aggregation, propagation, render, cache.

The working grid always spans n = 1..n_max with the radius-zero column and
every R up to min(n, r_max), so monotonicity chains and direct-sum splits
have their neighbors available; rendering then restricts to the requested
window.  The cache is a JSON object written atomically: the budget its cells
were computed under, and the map "n,R" -> record.  A cache is reused only
under an equal budget; any other budget recomputes every cell.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field

from .bounds import BoundRecord, Budget, best_bounds, propagate
from .codefiles import write_atomic

CACHE_ENV = "ASYMCOVER_CACHE"


@dataclass(frozen=True)
class TableSpec:
    """What slice of the bound table to produce and how hard to try."""

    n_min: int
    n_max: int
    r_min: int
    r_max: int
    budget: Budget = field(default_factory=Budget)
    cache_path: str | None = None

    def __post_init__(self) -> None:
        if not 1 <= self.n_min <= self.n_max:
            raise ValueError("need 1 <= n_min <= n_max")
        if not 0 <= self.r_min <= self.r_max:
            raise ValueError("need 0 <= r_min <= r_max")

    def cells(self) -> list[tuple[int, int]]:
        """Full working domain, a superset of the rendered window."""
        return [
            (n, R)
            for n in range(1, self.n_max + 1)
            for R in range(0, min(n, self.r_max) + 1)
        ]


def cell_dicts(grid: dict[tuple[int, int], BoundRecord]) -> dict[str, dict]:
    """The grid as JSON: "n,R" -> record, in cell order."""
    return {f"{n},{R}": rec.to_dict() for (n, R), rec in sorted(grid.items())}


def load_cache(path: str, budget: Budget) -> dict[tuple[int, int], BoundRecord]:
    """The cells cached at `path` if they were computed under `budget`, else {}.

    Raises ValueError naming the path when the file is not a bound cache, so
    that build_grid never overwrites it.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
        if not (
            isinstance(raw, dict)
            and raw.keys() == {"budget", "cells"}
            and isinstance(raw["budget"], dict)
            and isinstance(raw["cells"], dict)
        ):
            raise ValueError('expected an object with "budget" and "cells"')
        grid = {}
        for key, d in raw["cells"].items():
            rec = BoundRecord.from_dict(d)
            if key != f"{rec.n},{rec.R}":
                raise ValueError(f"cell {key!r} holds the record of n={rec.n}, R={rec.R}")
            grid[(rec.n, rec.R)] = rec
    except ValueError as exc:
        raise ValueError(f"{path} is not a bound cache: {exc}") from None
    return grid if raw["budget"] == asdict(budget) else {}


def save_cache(path: str, grid: dict[tuple[int, int], BoundRecord], budget: Budget) -> None:
    payload = {"budget": asdict(budget), "cells": cell_dicts(grid)}
    write_atomic(path, json.dumps(payload, indent=1, sort_keys=True) + "\n")


def build_grid(spec: TableSpec) -> dict[tuple[int, int], BoundRecord]:
    """Aggregate per-cell bounds (cache hits skip the work), then propagate."""
    cached: dict[tuple[int, int], BoundRecord] = {}
    if spec.cache_path and os.path.exists(spec.cache_path):
        cached = load_cache(spec.cache_path, spec.budget)
    grid = {}
    for n, R in spec.cells():
        rec = cached.get((n, R))
        grid[(n, R)] = rec if rec is not None else best_bounds(n, R, spec.budget)
    grid = propagate(grid)
    if spec.cache_path:
        # cached cells outside this window stay for the runs that need them
        save_cache(spec.cache_path, {**cached, **grid}, spec.budget)
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
    rows = []
    header = ["R\\n"] + [str(n) for n in ns]
    rows.append(header)
    for R in range(spec.r_min, spec.r_max + 1):
        row = [str(R)]
        for n in ns:
            if R > n:
                row.append("1")
            else:
                row.append(render_cell(grid[(n, R)]))
        rows.append(row)
    widths = [max(len(row[c]) for row in rows) for c in range(len(header))]
    lines = [
        "  ".join(cell.rjust(widths[c]) for c, cell in enumerate(row)) for row in rows
    ]
    return "\n".join(lines)
