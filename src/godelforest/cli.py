"""Command-line front end.

Exit codes: 0 success, 1 domain error (bad input data, guard violations),
2 usage error.  All output is deterministic for a fixed invocation.

Each subcommand imports what it runs, `json` included, when it runs, so
a process loads nothing more: `count` loads only `counts`, `forest` only
`forest` and `exports`, and `taut` and `equiv` only `formulas`,
`semantics` and `forest`.  None of these loads `json` or `fractions`.
"""

from __future__ import annotations

import argparse
import sys

#: Largest n whose forest `forest` exports: the n = 8 export needs gigabytes
#: of memory (a 2.9 GB peak as JSON).  The other subcommands run at n = 8 on
#: the forest's masks, and build only the classes they rank or walk.
MAX_EXPORT_VARIABLES = 7


def _load_json(path: str) -> object:
    import json

    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        # The decoder recurses, so deeply nested arrays end in RecursionError.
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from exc


def _load_partition(path: str):
    from .partitions import partition_from_json

    return partition_from_json(_load_json(path))


def _cmd_forest(args: argparse.Namespace) -> int:
    from .exports import subforest_to_dot, write_subforest_json
    from .forest import (
        MAX_FOREST_VARIABLES,
        enumerate_forest,
        full_subforest,
        ruspini_subforest,
        truncated_subforest,
        two_overlap_subforest,
    )

    if MAX_EXPORT_VARIABLES < args.n <= MAX_FOREST_VARIABLES:
        raise ValueError(
            f"forest export supports n <= {MAX_EXPORT_VARIABLES}: "
            f"the n = {args.n} export needs gigabytes of memory"
        )
    forest = enumerate_forest(args.n)
    if args.kind == "fn":
        sub = full_subforest(forest)
    elif args.kind == "rn":
        sub = ruspini_subforest(forest)
    elif args.kind == "tn":
        sub = two_overlap_subforest(forest)
    else:
        if args.t is None:
            print("error: --kind fnt requires --t", file=sys.stderr)
            return 2
        sub = truncated_subforest(forest, args.t)
    if args.format == "dot":
        sys.stdout.write(subforest_to_dot(sub))
    else:
        write_subforest_json(sub, sys.stdout)
        sys.stdout.write("\n")
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    import json

    from .exports import class_to_json
    from .forest import class_of_values
    from .partitions import as_fraction

    fields = args.values.split(",")
    for k, piece in enumerate(fields, start=1):
        if not piece.strip():  # dropping it would renumber the variables after it
            raise ValueError(f"--values field {k} is empty")
    c = class_of_values([as_fraction(piece) for piece in fields])
    print(c.chain_string())
    print(json.dumps(class_to_json(c)))
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    import json

    from .axioms import analyze
    from .exports import format_report, report_to_json

    report = analyze(_load_partition(args.file))
    if args.json:
        json.dump(report_to_json(report), sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        sys.stdout.write(format_report(report))
    return 0


def _cmd_axiomatize(args: argparse.Namespace) -> int:
    from .axioms import axiomatize_partition
    from .formulas import format_formula

    print(format_formula(axiomatize_partition(_load_partition(args.file))))
    return 0


def _cmd_axioms(args: argparse.Namespace) -> int:
    from .axioms import overlap_axiom, ruspini_axiom
    from .formulas import format_formula

    builder = ruspini_axiom if args.kind == "rho" else overlap_axiom
    print(format_formula(builder(args.n)))
    return 0


def _check_n(n: int) -> None:
    """`taut` and `equiv` take --n >= 0 (0 suits variable-free formulas)."""
    if n < 0:
        raise ValueError(f"--n must be >= 0, got {n}")


def _cmd_taut(args: argparse.Namespace) -> int:
    from .formulas import arity, parse_formula
    from .semantics import grid_tautology_oracle, is_tautology, parse_logic

    _check_n(args.n)
    logic = parse_logic(args.logic)
    formula = parse_formula(args.formula)
    k = arity(formula)
    if k > args.n:
        raise ValueError(f"formula uses X{k} but --n is {args.n}")
    if args.oracle:
        if not logic.is_finite:
            print("error: --oracle needs a finite-valued logic", file=sys.stderr)
            return 2
        verdict = grid_tautology_oracle(formula, args.n, logic.t)
    else:
        verdict = is_tautology(formula, args.n, logic)
    print("tautology" if verdict else "not a tautology")
    return 0


def _cmd_equiv(args: argparse.Namespace) -> int:
    from .formulas import arity, parse_formula
    from .semantics import parse_logic, proves_equiv

    _check_n(args.n)
    logic = parse_logic(args.logic)
    a, b = parse_formula(args.first), parse_formula(args.second)
    k = max(arity(a), arity(b))
    if k > args.n:
        raise ValueError(f"formulas use X{k} but --n is {args.n}")
    verdict = proves_equiv(a, b, args.n, logic)
    print("equivalent" if verdict else "not equivalent")
    return 0


def _cmd_synthesize(args: argparse.Namespace) -> int:
    import json

    from .axioms import synthesize_partition
    from .exports import class_from_json
    from .forest import downset, enumerate_forest
    from .partitions import partition_to_json

    obj = _load_json(args.leaves)
    if not isinstance(obj, list):
        raise ValueError(f"{args.leaves}: expected a JSON list of classes")
    forest = enumerate_forest(args.n)
    seeds = []
    for k, entry in enumerate(obj):
        try:
            seeds.append(class_from_json(entry, args.n))
        except ValueError as exc:
            raise ValueError(f"{args.leaves}: leaf {k}: {exc}") from exc
    sub = downset(forest, seeds)
    partition = synthesize_partition(sub, args.n)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(partition_to_json(partition), handle, indent=2)
        handle.write("\n")
    print(f"wrote {partition.n} sets over {len(sub.leaves())} intervals to {args.output}")
    return 0


def _cmd_count(args: argparse.Namespace) -> int:
    from .counts import count_2overlap_weak_ruspini, count_leaves, count_weak_ruspini

    count = {"leaves": count_leaves, "weak-ruspini": count_weak_ruspini,
             "overlap2": count_2overlap_weak_ruspini}[args.kind](args.n)
    # Counts are printed in full, past Python's default limit on the digits
    # of an int-to-str conversion (4,300); the limit is restored after.
    # Pythons before 3.10.7 have no such limit and no way to query it.
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:
        print(count)
        return 0
    limit = get_limit()
    sys.set_int_max_str_digits(0)
    try:
        print(count)
    finally:
        sys.set_int_max_str_digits(limit)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="godelforest",
        description=(
            "Analyze finite fuzzy partitions in Goedel logic: realized class "
            "forests, axiomatization, weak-Ruspini and 2-overlap decisions, "
            "partition synthesis, and tautology checking."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("forest", help="export an assignment-class forest")
    p.add_argument("--n", type=int, required=True, help="number of variables")
    p.add_argument(
        "--kind",
        choices=["fn", "rn", "tn", "fnt"],
        default="fn",
        help="full, Ruspini, two-overlap, or height-truncated forest",
    )
    p.add_argument("--t", type=int, default=None, help="truth-value count for --kind fnt")
    p.add_argument("--format", choices=["dot", "json"], default="dot")
    p.set_defaults(func=_cmd_forest)

    p = sub.add_parser("classify", help="class of a comma-separated value list")
    p.add_argument("--values", required=True, help="e.g. 0,1/3,1")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("analyze", help="full report for a partition file")
    p.add_argument("file", help="partition JSON file")
    p.add_argument("--json", action="store_true", help="emit the report as JSON")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("axiomatize", help="print the axiom of a partition file")
    p.add_argument("file", help="partition JSON file")
    p.set_defaults(func=_cmd_axiomatize)

    p = sub.add_parser("axioms", help="print a stock axiom")
    p.add_argument("--kind", choices=["rho", "tau"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_axioms)

    p = sub.add_parser("taut", help="decide tautology at a variable bound")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--logic", default="ginf", help="'ginf' or 'g<t>' such as 'g4'")
    p.add_argument("--oracle", action="store_true",
                   help="use the brute-force grid evaluation (finite logics)")
    p.add_argument("formula")
    p.set_defaults(func=_cmd_taut)

    p = sub.add_parser("equiv", help="decide provable equivalence of two formulas")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--logic", default="ginf")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser(
        "synthesize", help="build a step-function partition from a leaves file"
    )
    p.add_argument("leaves", help="JSON list of classes (zero/mid/one blocks)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("-o", "--output", required=True, help="partition JSON to write")
    p.set_defaults(func=_cmd_synthesize)

    p = sub.add_parser("count", help="evaluate the exact counting formulas")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kind", choices=["leaves", "weak-ruspini", "overlap2"], required=True)
    p.set_defaults(func=_cmd_count)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # ParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
