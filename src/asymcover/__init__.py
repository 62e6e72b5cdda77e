"""Asymmetric binary covering codes: constructions, bounds, and exact search.

A code C in the n-cube downward R-covers when every vertex can reach some
codeword by clearing at most R one-bits.  This package computes the minimum
size K+(n, R) exactly on small cubes, brackets it with analytic bounds and
explicit constructions elsewhere, and handles the linear (subspace) variant.
"""

from .bounds import BoundRecord, asym_sphere_bound, best_bounds
from .constructions import diagonal_code, general_upper_size, greedy_code, random_code_nu
from .cube import Code, covers, uncovered
from .exact import exact_kplus
from .ipsolve import ip_plus
from .linear import min_linear_dim
from .table import build_grid, render_table

__version__ = "0.8.0"

__all__ = [
    "BoundRecord",
    "Code",
    "asym_sphere_bound",
    "best_bounds",
    "build_grid",
    "covers",
    "diagonal_code",
    "exact_kplus",
    "general_upper_size",
    "greedy_code",
    "ip_plus",
    "min_linear_dim",
    "random_code_nu",
    "render_table",
    "uncovered",
]
