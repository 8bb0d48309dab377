"""Command-line front end.

Exit codes: 0 success, 1 domain error (bad input data, guard violations),
2 usage error.  All output is deterministic for a fixed invocation.

The grammar is one table, `_COMMANDS`.  Well-formed argv is read from it
without `argparse`; help, usage errors and all else go to the parser that
`build_parser` makes from it.  Each subcommand imports what it runs when it
runs, so a process compiles no module it does not use:

- `count` loads only `counts`;
- `forest` only `records`, `forest` and `exports`;
- `taut` and `equiv` only `records`, `formulas` (the parser), `syntax`,
  `semantics` and `forest`, and `taut --oracle` adds `grid`;
- `axioms` only `records`, `syntax` and `axioms`;
- `classify` only `records` and `classes`;
- `axiomatize` and `synthesize` only `records`, `syntax`, `axioms`,
  `classes` and `partitions`;
- `analyze` those and `forest`, `semantics` and `exports`.

Only `classify`, `axiomatize`, `synthesize` and `analyze` load `json` and
`fractions`.  No subcommand that reads no formula text loads `formulas`.

A process enters through `entry` (`python -m godelforest.cli` and the
`godelforest` console script), which runs `main` and then `gc.freeze()`:
the interpreter's collections at exit then skip the about 11,000 objects
that start-up made, about 10 ms of every process.  `main(argv)` leaves the
collector alone, for callers that go on running.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

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


def _cmd_forest(args) -> int:
    from .exports import write_subforest_dot, write_subforest_json
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
        write_subforest_dot(sub, sys.stdout)
    else:
        write_subforest_json(sub, sys.stdout)
        sys.stdout.write("\n")
    return 0


def _cmd_classify(args) -> int:
    import json

    from .classes import class_of_values, class_to_json

    fields = args.values.split(",")
    for k, piece in enumerate(fields, start=1):
        if not piece.strip():  # dropping it would renumber the variables after it
            raise ValueError(f"--values field {k} is empty")
    c = class_of_values(fields)  # it reads each field with `as_fraction`
    print(c.chain_string())
    print(json.dumps(class_to_json(c)))
    return 0


def _cmd_analyze(args) -> int:
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


def _cmd_axiomatize(args) -> int:
    from .axioms import axiomatize_partition
    from .syntax import format_formula

    print(format_formula(axiomatize_partition(_load_partition(args.file))))
    return 0


def _cmd_axioms(args) -> int:
    from .axioms import overlap_axiom, ruspini_axiom
    from .syntax import format_formula

    builder = ruspini_axiom if args.kind == "rho" else overlap_axiom
    print(format_formula(builder(args.n)))
    return 0


def _read_query(args, *texts: str) -> tuple:
    """The logic of --logic and the formulas of texts, for `taut` and `equiv`.
    --n must be >= 0 (0 suits variable-free formulas) and cover their variables."""
    from .formulas import arity, parse_formula
    from .semantics import parse_logic

    if args.n < 0:
        raise ValueError(f"--n must be >= 0, got {args.n}")
    logic, formulas = parse_logic(args.logic), [parse_formula(text) for text in texts]
    if (k := max(map(arity, formulas))) > args.n:
        uses = "formula uses" if len(texts) == 1 else "formulas use"
        raise ValueError(f"{uses} X{k} but --n is {args.n}")
    return logic, *formulas


def _cmd_taut(args) -> int:
    from .semantics import grid_tautology_oracle, is_tautology

    logic, formula = _read_query(args, args.formula)
    if args.oracle:
        if not logic.is_finite:
            print("error: --oracle needs a finite-valued logic", file=sys.stderr)
            return 2
        verdict = grid_tautology_oracle(formula, args.n, logic.t)
    else:
        verdict = is_tautology(formula, args.n, logic)
    print("tautology" if verdict else "not a tautology")
    return 0


def _cmd_equiv(args) -> int:
    from .semantics import proves_equiv

    logic, a, b = _read_query(args, args.first, args.second)
    print("equivalent" if proves_equiv(a, b, args.n, logic) else "not equivalent")
    return 0


def _cmd_synthesize(args) -> int:
    import json

    from .axioms import synthesize_partition
    from .classes import _maximal, class_from_json
    from .partitions import partition_to_json

    if args.n < 1:
        raise ValueError(f"--n must be >= 1, got {args.n}")
    obj = _load_json(args.leaves)
    if not isinstance(obj, list):
        raise ValueError(f"{args.leaves}: expected a JSON list of classes")
    seeds = []
    for k, entry in enumerate(obj):
        try:
            seeds.append(class_from_json(entry, args.n))
        except ValueError as exc:
            raise ValueError(f"{args.leaves}: leaf {k}: {exc}") from exc
    leaves = _maximal(seeds)
    partition = synthesize_partition(leaves)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(partition_to_json(partition), handle, indent=2)
        handle.write("\n")
    print(f"wrote {partition.n} sets over {len(leaves)} intervals to {args.output}")
    return 0


def _cmd_count(args) -> int:
    from .counts import count_2overlap_weak_ruspini, count_leaves, count_weak_ruspini

    count = {"leaves": count_leaves, "weak-ruspini": count_weak_ruspini,
             "overlap2": count_2overlap_weak_ruspini}[args.kind](args.n)
    # Counts are printed in full, past Python's default limit on the digits
    # of an int-to-str conversion (4,300); the limit is restored after.
    # Pythons before 3.10.7 have no such limit and no way to query it.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        print(count)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    return 0


#: The CLI grammar, the one source for `build_parser` and `_read_plain`:
#: subcommand -> (help, handler, [(flags, `add_argument` keywords), ...]).
_COMMANDS = {
    "forest": ("export an assignment-class forest", _cmd_forest, [
        (("--n",), {"type": int, "required": True, "help": "number of variables"}),
        (("--kind",), {"choices": ["fn", "rn", "tn", "fnt"], "default": "fn",
                       "help": "full, Ruspini, two-overlap, or height-truncated forest"}),
        (("--t",), {"type": int, "default": None, "help": "truth-value count for --kind fnt"}),
        (("--format",), {"choices": ["dot", "json"], "default": "dot"}),
    ]),
    "classify": ("class of a comma-separated value list", _cmd_classify,
                 [(("--values",), {"required": True, "help": "e.g. 0,1/3,1"})]),
    "analyze": ("full report for a partition file", _cmd_analyze, [
        (("file",), {"help": "partition JSON file"}),
        (("--json",), {"action": "store_true", "help": "emit the report as JSON"}),
    ]),
    "axiomatize": ("print the axiom of a partition file", _cmd_axiomatize,
                   [(("file",), {"help": "partition JSON file"})]),
    "axioms": ("print a stock axiom", _cmd_axioms, [
        (("--kind",), {"choices": ["rho", "tau"], "required": True}),
        (("--n",), {"type": int, "required": True}),
    ]),
    "taut": ("decide tautology at a variable bound", _cmd_taut, [
        (("--n",), {"type": int, "required": True}),
        (("--logic",), {"default": "ginf", "help": "'ginf' or 'g<t>' such as 'g4'"}),
        (("--oracle",), {"action": "store_true",
                         "help": "use the brute-force grid evaluation (finite logics)"}),
        (("formula",), {}),
    ]),
    "equiv": ("decide provable equivalence of two formulas", _cmd_equiv, [
        (("--n",), {"type": int, "required": True}),
        (("--logic",), {"default": "ginf"}),
        (("first",), {}), (("second",), {}),
    ]),
    "synthesize": ("build a step-function partition from a leaves file", _cmd_synthesize, [
        (("leaves",), {"help": "JSON list of classes (zero/mid/one blocks)"}),
        (("--n",), {"type": int, "required": True}),
        (("-o", "--output"), {"required": True, "help": "partition JSON to write"}),
    ]),
    "count": ("evaluate the exact counting formulas", _cmd_count, [
        (("--n",), {"type": int, "required": True}),
        (("--kind",), {"choices": ["leaves", "weak-ruspini", "overlap2"], "required": True}),
    ]),
}


def build_parser():
    """The `argparse.ArgumentParser` of `_COMMANDS`: the CLI's help and usage errors."""
    import argparse

    parser = argparse.ArgumentParser(prog="godelforest", description=(
        "Analyze finite fuzzy partitions in Goedel logic: realized class forests, axiomatization, "
        "weak-Ruspini and 2-overlap decisions, partition synthesis, and tautology checking."))
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, func, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flags, keywords in arguments:
            p.add_argument(*flags, **keywords)
        p.set_defaults(func=func)
    return parser


def _read_plain(argv: list[str]) -> SimpleNamespace | None:
    """`build_parser().parse_args(argv)`'s namespace where a plain reading is sure
    of it, else None: a subcommand, its positionals and its exact flags with
    their values (the last wins); no value starts with `-`, each is of its type
    and among its choices, and every required flag is given.  argparse reads the rest."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, func, arguments = _COMMANDS[argv[0]]
    values, flags, positionals = {"command": argv[0], "func": func}, {}, []
    for names, keywords in arguments:
        dest = names[-1].lstrip("-")
        if names[0].startswith("-"):
            flags.update(dict.fromkeys(names, (dest, keywords)))
            values[dest] = keywords.get("default", False if "action" in keywords else None)
        else:
            positionals.append((dest, keywords))
    tokens, given, free, read = iter(argv[1:]), set(), [], []
    for token in tokens:
        if not token.startswith("-"):
            free.append(token)
            continue
        dest, keywords = flags.get(token, (None, None))
        if dest is None:
            return None
        given.add(dest)
        if "action" in keywords:  # store_true
            values[dest] = True
        else:  # a missing value reads as "-", which is refused below
            read.append((dest, keywords, next(tokens, "-")))
    if len(free) != len(positionals) or any(
            keywords.get("required") and dest not in given for dest, keywords in flags.values()):
        return None
    read += [(dest, keywords, token) for (dest, keywords), token in zip(positionals, free)]
    for dest, keywords, token in read:
        try:
            value = keywords.get("type", str)(token)
        except ValueError:
            return None
        if token.startswith("-") or value not in keywords.get("choices", [value]):
            return None
        values[dest] = value
    return SimpleNamespace(**values)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read_plain(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # ParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> int:
    """`main()` on `sys.argv`, then `gc.freeze()`: the exit code of a
    process that ends next.  The exit is otherwise the normal one: atexit
    hooks, stream flushes and module teardown all run."""
    import gc

    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(entry())
