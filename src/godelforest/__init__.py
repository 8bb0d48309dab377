"""Goedel-logic analysis of finite fuzzy partitions via forests of
assignment classes."""

from .formulas import (
    And,
    Bot,
    Formula,
    Iff,
    Implies,
    Lhd,
    Not,
    Or,
    ParseError,
    Top,
    Var,
    arity,
    eval_formula,
    format_formula,
    parse_formula,
)
from .forest import (
    MAX_FOREST_VARIABLES,
    AssignmentClass,
    Forest,
    Subforest,
    class_key,
    class_of_values,
    downset,
    empty_subforest,
    enumerate_forest,
    full_subforest,
    generating_subforest,
    is_ruspini_leaf,
    is_ruspini_subforest,
    leq,
    ruspini_subforest,
    truncated_subforest,
    two_overlap_subforest,
)
from .semantics import (
    GINF,
    GRID_ORACLE_BUDGET,
    Logic,
    formula_forest,
    grid_tautology_oracle,
    is_tautology,
    parse_logic,
    proves_equiv,
    proves_implies,
)
from .partitions import (
    Partition,
    PiecewiseLinearFuzzySet,
    as_fraction,
    check_2_overlapping,
    check_ruspini_exact,
    critical_points,
    is_weak_ruspini,
    partition_forest,
    partition_from_json,
    partition_to_json,
    realized_classes,
)
from .axioms import (
    AnalysisReport,
    analyze,
    axiomatize_partition,
    axiomatize_subforest,
    chain_normal_form,
    conjunction,
    count_2overlap_weak_ruspini,
    count_leaves,
    count_weak_ruspini,
    disjunction,
    ordered_bell,
    overlap_axiom,
    ruspini_axiom,
    synthesize_partition,
)
from .exports import (
    class_from_json,
    class_to_json,
    format_report,
    report_to_json,
    subforest_to_dot,
    subforest_to_json,
)

__version__ = "0.1.0"
