"""Goedel-logic analysis of finite fuzzy partitions via forests of
assignment classes.

Submodules load on first use: `from godelforest import analyze` imports
`axioms` and what it needs, and nothing else.  Every access to a package
name reads the submodule's current binding, so a function patched in its
submodule is seen through the package as well.
"""

import importlib
import sys

#: submodule -> the public names the package re-exports from it
_EXPORTS = {
    "syntax": (
        "And", "Bot", "Formula", "Iff", "Implies", "Lhd", "Not", "Or", "Top", "Var", "arity",
        "eval_formula", "format_formula",
    ),
    "formulas": ("ParseError", "parse_formula"),
    "classes": (
        "AssignmentClass", "as_fraction", "class_from_json", "class_key", "class_of_values",
        "class_to_json", "is_ruspini_leaf", "leq",
    ),
    "forest": (
        "MAX_FOREST_VARIABLES", "Forest", "Subforest", "downset", "empty_subforest",
        "enumerate_forest", "full_subforest", "generating_subforest", "is_ruspini_subforest",
        "ruspini_subforest", "truncated_subforest", "two_overlap_subforest",
    ),
    "semantics": (
        "GINF", "GRID_ORACLE_BUDGET", "Logic", "formula_forest", "grid_tautology_oracle",
        "is_tautology", "parse_logic", "proves_equiv", "proves_implies",
    ),
    "partitions": (
        "Partition", "PiecewiseLinearFuzzySet", "check_2_overlapping", "check_ruspini_exact",
        "critical_points", "is_weak_ruspini", "partition_forest", "partition_from_json",
        "partition_to_json", "realized_classes",
    ),
    "axioms": (
        "AnalysisReport", "analyze", "axiomatize_partition", "axiomatize_subforest",
        "chain_normal_form", "conjunction", "disjunction", "overlap_axiom",
        "ruspini_axiom", "synthesize_partition",
    ),
    "counts": (
        "count_2overlap_weak_ruspini", "count_leaves", "count_weak_ruspini",
        "ordered_bell",
    ),
    "exports": ("format_report", "report_to_json", "subforest_to_dot", "subforest_to_json"),
}

_MODULE_OF = {name: f"{__name__}.{module}" for module, names in _EXPORTS.items()
              for name in names}

__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule not imported yet
        return importlib.import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    try:
        loaded = sys.modules[module]
    except KeyError:
        loaded = importlib.import_module(module)
    return getattr(loaded, name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
