"""Asymmetric binary covering codes: constructions, bounds, and exact search.

A code C in the n-cube downward R-covers when every vertex can reach some
codeword by clearing at most R one-bits.  This package computes the minimum
size K+(n, R) exactly on small cubes, brackets it with analytic bounds and
explicit constructions elsewhere, and handles the linear (subspace) variant.
"""

from .bounds import (
    Budget,
    BoundRecord,
    FULL_BUDGET,
    asym_sphere_bound,
    best_bounds,
    propagate,
    sphere_bound_symmetric,
    superdiag_exact,
    superdiag_lower,
)
from .codefiles import load_code, save_code
from .constructions import (
    PatchedCode,
    diagonal_code,
    direct_sum,
    estimate_alpha,
    general_upper_code,
    general_upper_size,
    greedy_code,
    inductive_power2,
    nu,
    random_code_nu,
    random_patched,
    semi_direct_sum,
)
from .cube import (
    Code,
    ball_down,
    ball_size_down,
    ball_size_up,
    covers,
    dominated,
    uncovered,
    weight,
)
from .exact import ExactResult, exact_kplus
from .ipsolve import CoveringIP, diff_chain_lower, diff_lower, ip_phi, ip_plus
from .linear import (
    LinearCode,
    a_code,
    asym_covering_radius,
    code_covering_radius,
    min_linear_dim,
    span,
)
from .table import TableSpec, build_grid, render_table

__version__ = "0.1.0"

__all__ = [
    "Budget",
    "BoundRecord",
    "Code",
    "CoveringIP",
    "ExactResult",
    "FULL_BUDGET",
    "LinearCode",
    "PatchedCode",
    "TableSpec",
    "a_code",
    "asym_covering_radius",
    "asym_sphere_bound",
    "ball_down",
    "ball_size_down",
    "ball_size_up",
    "best_bounds",
    "build_grid",
    "code_covering_radius",
    "covers",
    "diagonal_code",
    "diff_chain_lower",
    "diff_lower",
    "direct_sum",
    "dominated",
    "estimate_alpha",
    "exact_kplus",
    "general_upper_code",
    "general_upper_size",
    "greedy_code",
    "inductive_power2",
    "ip_phi",
    "ip_plus",
    "load_code",
    "min_linear_dim",
    "nu",
    "propagate",
    "random_code_nu",
    "random_patched",
    "render_table",
    "save_code",
    "semi_direct_sum",
    "span",
    "sphere_bound_symmetric",
    "superdiag_exact",
    "superdiag_lower",
    "uncovered",
    "weight",
]
